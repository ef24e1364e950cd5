(* The shadow-state profiler's contract:

   1. the profiler NEVER changes analysis results: warnings and
      witnesses are identical with profiling on vs off, sequentially
      and under both parallel plans (attribution observes the rules,
      it does not steer them);
   2. every hot-variable ranking is the exact cells' one: the
      document's top_vars, hot_alist and the live stream's final
      top_vars agree, on traces with far more variables than a
      ranking shows;
   3. the merged parallel profile equals the sequential oracle:
      same attributed accesses, same per-variable counts, same
      census population;
   4. the census classifies the shadow-state lifecycle correctly
      (epoch-only vs inflated, inflation/deflation counters);
   5. the ftrace.prof/2 document round-trips through Obs_json_read
      and its figures agree with the profiler's accessors. *)

module J = Obs_json_read

let fasttrack = (module Fasttrack : Detector.S)

let trace_of name =
  match Workloads.find name with
  | Some w -> Workload.trace ~seed:11 ~scale:1 w
  | None -> Alcotest.failf "unknown workload %s" name

let x = Var.scalar 0
let rd t x = Event.Read { t; x }
let wr t x = Event.Write { t; x }
let fork t u = Event.Fork { t; u }
let join t u = Event.Join { t; u }

(* ------------------------------------------------------------------ *)
(* 1. invariance: profiling on vs off                                 *)

let check_same_verdict (off : Driver.result) (on : Driver.result) =
  Alcotest.(check bool) "identical warnings" true
    (off.Driver.warnings = on.Driver.warnings);
  Alcotest.(check bool) "identical witnesses" true
    (off.Driver.witnesses = on.Driver.witnesses)

let test_invariance_seq () =
  List.iter
    (fun name ->
      let tr = trace_of name in
      let off = Driver.run fasttrack tr in
      let config =
        Config.with_prof (Obs_prof.create ()) Config.default
      in
      let on = Driver.run ~config fasttrack tr in
      check_same_verdict off on)
    [ "raytracer"; "moldyn"; "hedc" ]

let test_invariance_parallel () =
  List.iter
    (fun plan ->
      let tr = trace_of "raytracer" in
      let off = Driver.run_parallel ~jobs:3 ~plan fasttrack tr in
      let config =
        Config.with_prof (Obs_prof.create ()) Config.default
      in
      let on = Driver.run_parallel ~config ~jobs:3 ~plan fasttrack tr in
      check_same_verdict off on)
    [ Shard.Static; Shard.Stealing ]

let test_invariance_static_elim () =
  List.iter
    (fun name ->
      match Workloads.find name with
      | None -> Alcotest.failf "unknown workload %s" name
      | Some (w : Workload.t) ->
        let summary = Static.analyze (w.program ~scale:1) in
        let skip = Static.eliminator ~granularity:Var.Fine summary in
        let elim = Config.with_static_elim skip Config.default in
        let tr = trace_of name in
        let off = Driver.run ~config:elim fasttrack tr in
        let on =
          Driver.run
            ~config:(Config.with_prof (Obs_prof.create ()) elim)
            fasttrack tr
        in
        check_same_verdict off on)
    [ "raytracer"; "hedc" ]

(* ------------------------------------------------------------------ *)
(* 3. merged parallel profile = sequential oracle                     *)

let profile_of ?jobs ?plan name =
  let tr = trace_of name in
  let prof = Obs_prof.create () in
  let config = Config.with_prof prof Config.default in
  (match jobs with
  | None -> ignore (Driver.run ~config fasttrack tr)
  | Some jobs ->
    ignore (Driver.run_parallel ~config ~jobs ?plan fasttrack tr));
  prof

let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l

let test_parallel_merge_oracle () =
  let seq = profile_of "hedc" in
  List.iter
    (fun plan ->
      let par = profile_of ~jobs:3 ~plan "hedc" in
      Alcotest.(check int)
        "attributed accesses" (Obs_prof.accesses seq)
        (Obs_prof.accesses par);
      Alcotest.(check int)
        "vc walks" (Obs_prof.vc_walks seq) (Obs_prof.vc_walks par);
      Alcotest.(check int)
        "census population" (Obs_prof.inflated_now seq)
        (Obs_prof.inflated_now par);
      (* per-variable attribution merges to the sequential counts
         (disjoint keys under variable sharding: merge is a move) *)
      Alcotest.(check (list (pair string int)))
        "per-variable ops"
        (by_name (Obs_prof.hot_alist ~k:10_000 seq))
        (by_name (Obs_prof.hot_alist ~k:10_000 par)))
    [ Shard.Static; Shard.Stealing ]

let test_merge_oracle_trace_gen () =
  (* generated traces (not just the curated workloads): the merged
     parallel attribution must equal the sequential oracle on
     arbitrary feasible interleavings too *)
  List.iter
    (fun seed ->
      let tr =
        Trace_gen.generate ~seed
          { Trace_gen.threads = 4; vars = 12; locks = 2; volatiles = 2;
            length = 400; profile = Trace_gen.Mixed; barriers = true }
      in
      let prof_of ?jobs ?plan () =
        let prof = Obs_prof.create () in
        let config = Config.with_prof prof Config.default in
        (match jobs with
        | None -> ignore (Driver.run ~config fasttrack tr)
        | Some jobs ->
          ignore (Driver.run_parallel ~config ~jobs ?plan fasttrack tr));
        prof
      in
      let seq = prof_of () in
      List.iter
        (fun plan ->
          let par = prof_of ~jobs:3 ~plan () in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "seed %d: per-variable ops" seed)
            (by_name (Obs_prof.hot_alist ~k:10_000 seq))
            (by_name (Obs_prof.hot_alist ~k:10_000 par)))
        [ Shard.Static; Shard.Stealing ])
    [ 3; 17; 99 ]

(* ------------------------------------------------------------------ *)
(* 2. one ranking                                                     *)

(* A document's top_vars as [(var, ops)], in rank order. *)
let top_vars doc =
  match J.member "top_vars" doc with
  | Some (J.Arr vars) -> List.map (fun v -> (J.str v "var", J.int v "ops")) vars
  | _ -> Alcotest.fail "document has no top_vars array"

(* The live stream's final record's top_vars, in rank order. *)
let live_final_top_vars path =
  let ic = open_in path in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> close_in ic);
  match Option.bind (J.member "top_vars" (J.parse !last)) J.to_obj with
  | Some vars -> List.map (fun (k, v) -> (k, Option.get (J.to_int v))) vars
  | None -> Alcotest.fail "final live record has no top_vars"

(* 1 200 variables, far more than any ranking shows: the document's
   top_vars, hot_alist and the live final record rank the same
   variables with the same exact counts, sequentially and under both
   parallel plans.  The live record shows 8. *)
let test_one_ranking () =
  let tr =
    Trace_gen.generate ~seed:7
      { Trace_gen.default with threads = 8; vars = 1200; length = 60_000 }
  in
  List.iter
    (fun (label, run) ->
      let prof = Obs_prof.create () in
      let path = Filename.temp_file "ftprof" ".ndjson" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let live = Obs_live.create ~sink:(open_out path) ~owns_sink:true () in
          let config =
            Config.with_live live (Config.with_prof prof Config.default)
          in
          ignore (run config);
          Obs_live.close live;
          let hot = Obs_prof.hot_alist ~k:8 prof in
          Alcotest.(check int) (label ^ ": eight ranked") 8 (List.length hot);
          let doc =
            J.parse (Obs_json.to_string (Obs_prof.document ~top:8 prof))
          in
          Alcotest.(check (list (pair string int)))
            (label ^ ": top_vars = hot_alist") hot (top_vars doc);
          Alcotest.(check (list (pair string int)))
            (label ^ ": top_vars = live final top_vars") (top_vars doc)
            (live_final_top_vars path)))
    [ ("seq", fun config -> Driver.run ~config fasttrack tr);
      ( "static -j 2",
        fun config ->
          Driver.run_parallel ~config ~jobs:2 ~plan:Shard.Static fasttrack tr );
      ( "stealing -j 2",
        fun config ->
          Driver.run_parallel ~config ~jobs:2 ~plan:Shard.Stealing fasttrack
            tr ) ]

(* ------------------------------------------------------------------ *)
(* 4. census lifecycle                                                *)

let census_of prof =
  let doc = J.parse (Obs_json.to_string (Obs_prof.document prof)) in
  match J.member "census" doc with
  | Some c -> c
  | None -> Alcotest.fail "document has no census"

let test_census_lifecycle () =
  let prof = Obs_prof.create () in
  let config = Config.with_prof prof Config.default in
  let d = Fasttrack.create config in
  let feed es =
    List.iteri (fun index e -> Fasttrack.on_event d ~index e) es
  in
  (* two concurrent readers inflate x's read history to a VC *)
  feed [ wr 0 x; fork 0 1; rd 1 x; rd 0 x ];
  Obs_prof.take_census prof;
  let c = census_of prof in
  Alcotest.(check int) "one variable" 1 (J.int c "vars");
  Alcotest.(check int) "inflated now" 1 (J.int c "inflated");
  Alcotest.(check int) "no epoch-only" 0 (J.int c "epoch_only");
  Alcotest.(check int) "one inflation" 1 (J.int c "inflations");
  Alcotest.(check bool) "memory billed" true (J.int c "state_words" > 0);
  Alcotest.(check bool) "read VC billed" true (J.int c "rvc_words" > 0);
  (* an ordered write demotes the history back to an epoch *)
  feed [ join 0 1; wr 0 x ];
  Obs_prof.take_census prof;
  let c = census_of prof in
  Alcotest.(check int) "deflated" 0 (J.int c "inflated");
  Alcotest.(check int) "epoch-only again" 1 (J.int c "epoch_only");
  Alcotest.(check int) "ever inflated sticks" 1 (J.int c "ever_inflated");
  Alcotest.(check int) "one deflation" 1 (J.int c "deflations")

(* ------------------------------------------------------------------ *)
(* 5. ftrace.prof/2 round-trip                                        *)

let test_document_roundtrip () =
  let tr = trace_of "hedc" in
  let prof = Obs_prof.create () in
  let config = Config.with_prof prof Config.default in
  let r = Driver.run ~config fasttrack tr in
  let doc =
    J.parse
      (Obs_json.to_string
         (Obs_prof.document ~source:"hedc" ~tool:"FastTrack"
            ~wall:r.Driver.wall
            ~stats:(Stats.fields_alist r.Driver.stats) prof))
  in
  Alcotest.(check string)
    "schema" Obs_prof.schema_version (J.str doc "schema");
  Alcotest.(check bool) "enabled" true (J.bool doc "enabled");
  let totals = Option.get (J.member "totals" doc) in
  Alcotest.(check int)
    "accesses agree" (Obs_prof.accesses prof) (J.int totals "accesses");
  Alcotest.(check bool) "saw accesses" true (J.int totals "accesses" > 0);
  (* per-rule hits partition the attributed accesses *)
  let rule_sum =
    match J.member "rules" doc with
    | Some (J.Arr rules) ->
      List.fold_left (fun a r -> a + J.int r "hits") 0 rules
    | _ -> Alcotest.fail "document has no rules array"
  in
  Alcotest.(check int)
    "rule hits sum to accesses" (J.int totals "accesses") rule_sum;
  (* class totals partition too *)
  Alcotest.(check int)
    "class totals sum to accesses" (J.int totals "accesses")
    (J.int totals "same_epoch" + J.int totals "epoch" + J.int totals "vc");
  let census = Option.get (J.member "census" doc) in
  Alcotest.(check bool) "census taken" true (J.bool census "taken");
  Alcotest.(check bool) "census saw vars" true (J.int census "vars" > 0);
  Alcotest.(check (list (pair string int)))
    "top_vars: the exact ranking" (Obs_prof.hot_alist ~k:20 prof)
    (top_vars doc);
  (* the run's stats ride along verbatim *)
  let stats_j = Option.get (J.member "stats" doc) in
  List.iter
    (fun (k, v) -> Alcotest.(check int) ("stats." ^ k) v (J.int stats_j k))
    (Stats.fields_alist r.Driver.stats)

let test_document_disabled () =
  let doc =
    J.parse (Obs_json.to_string (Obs_prof.document Obs_prof.disabled))
  in
  Alcotest.(check string)
    "schema" Obs_prof.schema_version (J.str doc "schema");
  Alcotest.(check bool) "disabled" false (J.bool doc "enabled");
  let totals = Option.get (J.member "totals" doc) in
  Alcotest.(check int) "zero accesses" 0 (J.int totals "accesses")

(* ------------------------------------------------------------------ *)
(* edges: empty profile, sampling smoke                               *)

let test_empty_profile_fractions () =
  let prof = Obs_prof.create () in
  Alcotest.(check (float 0.)) "fast_frac of nothing" 0.
    (Obs_prof.fast_frac prof);
  Alcotest.(check (float 0.)) "same_epoch_frac of nothing" 0.
    (Obs_prof.same_epoch_frac prof);
  Alcotest.(check int) "no accesses" 0 (Obs_prof.accesses prof);
  Alcotest.(check bool) "disabled handle reports disabled" false
    (Obs_prof.is_enabled Obs_prof.disabled)

let test_sampling_smoke () =
  (* stride 1: every access is timed; the buckets must fill without
     perturbing the verdict *)
  let tr = trace_of "raytracer" in
  let off = Driver.run fasttrack tr in
  let prof = Obs_prof.create ~sample_stride:1 () in
  let config = Config.with_prof prof Config.default in
  let on = Driver.run ~config fasttrack tr in
  check_same_verdict off on;
  let doc = J.parse (Obs_json.to_string (Obs_prof.document prof)) in
  let timing = Option.get (J.member "timing" doc) in
  Alcotest.(check int) "stride" 1 (J.int timing "stride");
  Alcotest.(check bool) "samples recorded" true (J.int timing "samples" > 0)

let suite =
  ( "prof",
    [ Alcotest.test_case "prof on/off: sequential verdicts identical"
        `Quick test_invariance_seq;
      Alcotest.test_case "prof on/off: parallel verdicts identical"
        `Quick test_invariance_parallel;
      Alcotest.test_case "prof on/off: static-elim verdicts identical"
        `Quick test_invariance_static_elim;
      Alcotest.test_case "merged parallel profile = sequential oracle"
        `Quick test_parallel_merge_oracle;
      Alcotest.test_case "merge oracle holds on generated traces"
        `Quick test_merge_oracle_trace_gen;
      Alcotest.test_case "top_vars = hot_alist = live final top_vars"
        `Quick test_one_ranking;
      Alcotest.test_case "census: inflation/deflation lifecycle" `Quick
        test_census_lifecycle;
      Alcotest.test_case "ftrace.prof/2 document round-trips" `Quick
        test_document_roundtrip;
      Alcotest.test_case "ftrace.prof/2 of a disabled handle" `Quick
        test_document_disabled;
      Alcotest.test_case "empty profile: fractions are 0, not NaN" `Quick
        test_empty_profile_fractions;
      Alcotest.test_case "sampling at stride 1: verdict unperturbed"
        `Quick test_sampling_smoke ] )
