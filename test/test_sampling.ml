(* The sampling tier (lib/sampling): FastTrack equivalence at rate
   1.0, cross-plan determinism of the seeded sampling policy, the
   pinned decision stream, soundness (sampled warnings only ever name
   truly racy variables), the repeated-runs recall guarantee the A9 CI
   gate enforces, and the accounting of every access. *)

let warning : Warning.t Alcotest.testable =
  Alcotest.testable Warning.pp (fun (a : Warning.t) b -> a = b)

let warnings_t = Alcotest.list warning

let witness : Witness.t Alcotest.testable =
  Alcotest.testable Witness.pp (fun (a : Witness.t) b -> a = b)

let witnesses_t = Alcotest.list witness

let config ~rate ~budget ~seed =
  Config.with_sampling { Config.rate; budget; seed } Config.default

(* -- rate 1.0 ≡ FastTrack ------------------------------------------ *)

let full_rate = config ~rate:1.0 ~budget:0 ~seed:7

let sampling_full_rate_is_fasttrack tr =
  let ft = Driver.run (module Fasttrack) tr in
  List.iter
    (fun d ->
      let sp = Driver.run ~config:full_rate d tr in
      Alcotest.check warnings_t "warnings ≡ FastTrack at rate 1.0"
        ft.Driver.warnings sp.Driver.warnings;
      Alcotest.check witnesses_t "witnesses ≡ FastTrack at rate 1.0"
        ft.Driver.witnesses sp.Driver.witnesses)
    [ (module Sampling_ft : Detector.S);
      (module Sampling_period : Detector.S) ];
  true

let qtest_full_rate =
  Helpers.qtest ~count:80 "sampling at rate 1.0 ≡ FastTrack"
    sampling_full_rate_is_fasttrack

(* -- cross-plan determinism at the default rate -------------------- *)

(* The whole point of the pure (seed, var, ordinal) policy: identical
   warning sets from the sequential run, both parallel plans, and the
   static-elimination run.  (Static elimination drops certified
   variables wholesale, so surviving variables keep their ordinals.) *)
let sampling_plans_agree tr =
  List.iter
    (fun d ->
      let cfg = config ~rate:0.1 ~budget:2 ~seed:3 in
      let seq = Driver.run ~config:cfg d tr in
      List.iter
        (fun plan ->
          let par = Driver.run_parallel ~config:cfg ~jobs:3 ~plan d tr in
          Alcotest.check warnings_t
            (Printf.sprintf "warnings under %s" (Shard.kind_to_string plan))
            seq.Driver.warnings par.Driver.warnings;
          Alcotest.check witnesses_t
            (Printf.sprintf "witnesses under %s" (Shard.kind_to_string plan))
            seq.Driver.witnesses par.Driver.witnesses)
        [ Shard.Static; Shard.Stealing ])
    [ (module Sampling_ft : Detector.S);
      (module Sampling_period : Detector.S) ];
  true

let qtest_plans =
  Helpers.qtest ~count:40 "sampling: seq ≡ static ≡ stealing"
    sampling_plans_agree

let test_static_elim_agrees () =
  let w = Option.get (Workloads.find "raytracer") in
  let summary = Static.analyze (w.Workload.program ~scale:1) in
  let tr = Workload.trace ~seed:11 ~scale:1 w in
  let cfg = config ~rate:0.1 ~budget:2 ~seed:3 in
  let plain = Driver.run ~config:cfg (module Sampling_ft) tr in
  let elim_cfg =
    Config.with_static_elim
      (Static.eliminator ~granularity:Var.Fine summary)
      cfg
  in
  let elim = Driver.run ~config:elim_cfg (module Sampling_ft) tr in
  Alcotest.check warnings_t "warnings with static-elim"
    plain.Driver.warnings elim.Driver.warnings;
  Alcotest.check witnesses_t "witnesses with static-elim"
    plain.Driver.witnesses elim.Driver.witnesses

(* -- soundness: sampling never invents a race ---------------------- *)

let racy_vars warnings =
  warnings
  |> List.map (fun w -> w.Warning.x)
  |> List.sort_uniq Var.compare

let subset a b = List.for_all (fun x -> List.mem x b) a

let sampling_is_sound tr =
  let ft = racy_vars (Driver.run (module Fasttrack) tr).Driver.warnings in
  List.iter
    (fun seed ->
      let cfg = config ~rate:0.1 ~budget:2 ~seed in
      List.iter
        (fun d ->
          let sp = racy_vars (Driver.run ~config:cfg d tr).Driver.warnings in
          if not (subset sp ft) then
            Alcotest.failf
              "sampler (seed %d) warned on a variable FastTrack did not: %s"
              seed (Helpers.vars_to_string sp))
        [ (module Sampling_ft : Detector.S);
          (module Sampling_period : Detector.S) ])
    [ 1; 2; 3 ];
  true

let qtest_sound =
  Helpers.qtest ~count:60 "sampled warnings ⊆ FastTrack's racy variables"
    sampling_is_sound

(* -- repeated-runs recall (the A9 gate's property) ----------------- *)

let recall_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_recall_within_k_runs () =
  List.iter
    (fun (w : Workload.t) ->
      if w.Workload.expected_races > 0 then begin
        let tr = Workload.trace ~seed:11 ~scale:1 w in
        let oracle =
          racy_vars (Driver.run (module Fasttrack) tr).Driver.warnings
        in
        let caught =
          List.concat_map
            (fun seed ->
              let cfg =
                Config.with_sampling
                  { Config.default_sampling with Config.seed }
                  Config.default
              in
              racy_vars
                (Driver.run ~config:cfg (module Sampling_ft) tr)
                  .Driver.warnings)
            recall_seeds
          |> List.sort_uniq Var.compare
        in
        if not (subset oracle caught) then
          Alcotest.failf
            "%s: races missed across %d seeded runs at the default rate \
             (oracle %s, caught %s)"
            w.Workload.name (List.length recall_seeds)
            (Helpers.vars_to_string oracle)
            (Helpers.vars_to_string caught)
      end)
    Workloads.table1

(* -- the pinned decision stream ------------------------------------ *)

(* Stats.sampled and the warning list for every racy Table 1 workload
   (seed-11 traces), at Config.default_sampling for Sampling_ft and at
   rate 0.1 for Sampling_period, under every plan.  The subset and
   recall properties above survive many changes to the coin; these
   figures do not, so any change to the decision stream shows here. *)
let pinned =
  (* workload, Sampling_ft sampled, Sampling_period sampled, warnings *)
  [ ("mtrt", 335, 539,
     [ "read-write race on x5 at [29] by T1 (with the access at 1@T2)" ]);
    ("raytracer", 901, 2037,
     [ "write-read race on x12 at [35] by T2 (with the access at 1@T1)" ]);
    ("tsp", 196, 270,
     [ "write-read race on x2 at [66] by T2 (with the access at 2@T1)" ]);
    ("hedc", 117, 163,
     [ "write-write race on x6 at [21] by T1 (with the access at 1@T2)";
       "write-write race on x8 at [40] by T3 (with the access at 1@T4)";
       "write-write race on x7 at [90] by T1 (with the access at 1@T2)" ]);
    ("jbb", 176, 336,
     [ "write-read race on x6 at [38] by T2 (with the access at 1@T1)";
       "write-write race on x7 at [132] by T3 (with the access at 1@T4)" ]) ]

(* the sequential run and both parallel plans *)
let plans =
  let par plan config d tr = Driver.run_parallel ~config ~jobs:3 ~plan d tr in
  [ ("seq", fun config d tr -> Driver.run ~config d tr);
    ("static", par Shard.Static);
    ("stealing", par Shard.Stealing) ]

let test_pinned_decisions () =
  Alcotest.(check (list string))
    "every racy Table 1 workload is pinned"
    (List.filter_map
       (fun (w : Workload.t) ->
         if w.Workload.expected_races > 0 then Some w.Workload.name else None)
       Workloads.table1)
    (List.map (fun (n, _, _, _) -> n) pinned);
  let period_cfg =
    Config.with_sampling
      { Config.default_sampling with Config.rate = 0.1 }
      Config.default
  in
  List.iter
    (fun (name, ft_sampled, period_sampled, expected) ->
      let tr =
        Workload.trace ~seed:11 ~scale:1 (Option.get (Workloads.find name))
      in
      List.iter
        (fun (d, config, sampled) ->
          List.iter
            (fun (plan, run) ->
              let r = run config d tr in
              let what = Printf.sprintf "%s %s %s" name r.Driver.tool plan in
              Alcotest.(check int) (what ^ ": sampled") sampled
                r.Driver.stats.Stats.sampled;
              Alcotest.(check (list string)) (what ^ ": warnings") expected
                (List.map Warning.to_string r.Driver.warnings))
            plans)
        [ ((module Sampling_ft : Detector.S), Config.default, ft_sampled);
          ((module Sampling_period : Detector.S), period_cfg, period_sampled) ])
    pinned

(* -- stats accounting ---------------------------------------------- *)

(* Every access is sampled or skipped; every sampled access fires
   exactly one Figure-5 rule, in the stats histogram and — with the
   profiler on — in the per-variable profile. *)
let test_stats_partition () =
  let tr =
    Trace_gen.generate ~seed:5
      { Trace_gen.default with Trace_gen.length = 400 }
  in
  let reads, writes, _ = Trace.counts tr in
  let sum l = List.fold_left (fun acc (_, n) -> acc + n) 0 l in
  List.iter
    (fun d ->
      List.iter
        (fun (plan, run) ->
          let prof = Obs_prof.create () in
          let cfg =
            Config.with_prof prof (config ~rate:0.1 ~budget:4 ~seed:1)
          in
          let r = run cfg d tr in
          let s = r.Driver.stats in
          let what = Printf.sprintf "%s %s: " r.Driver.tool plan in
          Alcotest.(check int) (what ^ "sampled + skipped = accesses")
            (reads + writes)
            (s.Stats.sampled + s.Stats.skipped);
          Alcotest.(check bool) (what ^ "some skipped") true
            (s.Stats.skipped > 0);
          Alcotest.(check int) (what ^ "rule hits = sampled") s.Stats.sampled
            (sum (Stats.rules_alist s));
          Alcotest.(check int) (what ^ "profiled rule hits = sampled")
            s.Stats.sampled
            (sum (Obs_prof.hot_alist ~k:max_int prof)))
        plans)
    [ (module Sampling_ft : Detector.S);
      (module Sampling_period : Detector.S) ];
  let run cfg d = (Driver.run ~config:cfg d tr).Driver.stats in
  let s1 = run full_rate (module Sampling_ft) in
  Alcotest.(check int) "rate 1.0 skips nothing" 0 s1.Stats.skipped;
  Alcotest.(check int) "rate 1.0 samples everything" (reads + writes)
    s1.Stats.sampled;
  let s0 = run (config ~rate:0.0 ~budget:0 ~seed:1) (module Sampling_ft) in
  Alcotest.(check int) "rate 0.0, budget 0 samples nothing" 0
    s0.Stats.sampled;
  let ft = (Driver.run (module Fasttrack) tr).Driver.stats in
  Alcotest.(check int) "FastTrack reports sampled = 0" 0 ft.Stats.sampled;
  Alcotest.(check int) "FastTrack reports skipped = 0" 0 ft.Stats.skipped

let suite =
  ( "sampling",
    [ qtest_full_rate;
      qtest_plans;
      Alcotest.test_case "static-elim keeps the warning set" `Quick
        test_static_elim_agrees;
      qtest_sound;
      Alcotest.test_case "recall within K seeded runs (A9)" `Quick
        test_recall_within_k_runs;
      Alcotest.test_case "decision stream pinned on Table 1" `Quick
        test_pinned_decisions;
      Alcotest.test_case "sampled/skipped account for every access"
        `Quick test_stats_partition ] )
