(* Experiment A9 (ours) — the sampling tier's recall-vs-slowdown
   frontier.

   The sampling detectors analyze a seeded pseudo-random fraction of
   each variable's accesses — a coin in front of plain FastTrack,
   whose vector-clock sync state stays exact — so skipped accesses
   cost O(1) and warnings stay a subset of FastTrack's.  This
   experiment sweeps the rate and records one frontier row per
   (workload, rate): sequential wall time, events/s, speedup over
   sequential FastTrack on the same trace, and racy-variable recall
   against the FastTrack oracle.  Rate 1.0 must land on FastTrack's
   exact warning set (asserted here); rate 0.0 with budget 0 prices
   the pure timestamp-maintenance floor.

   Two greppable gate lines close the loop for CI (satellite of the
   A9 issue): SAMPLING_RECALL per racy workload — union recall over
   [gate_seeds] independently-seeded runs at the default config, which
   must be 1.00 — and SAMPLING_SPEEDUP_VS_FT on the compute-bound
   moldyn trace, which must be >= 3.0. *)

let rates = [ 0.0; 0.05; 0.1; 0.25; 1.0 ]
let workload_names = [ "raytracer"; "mtrt"; "tsp"; "hedc"; "jbb"; "moldyn" ]
let racy_workloads = [ "raytracer"; "mtrt"; "tsp"; "hedc"; "jbb" ]
let gate_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let racy_vars (r : Driver.result) =
  r.Driver.warnings
  |> List.map (fun w -> w.Warning.x)
  |> List.sort_uniq Var.compare

let recall ~oracle caught =
  if oracle = [] then -1.
  else
    let hit = List.filter (fun x -> List.mem x caught) oracle in
    float_of_int (List.length hit) /. float_of_int (List.length oracle)

let config ~rate ~budget ~seed =
  Config.with_sampling { Config.rate; budget; seed } Config.default

(* Best-of-[n] wall time (the result is identical across runs — the
   detectors are deterministic — so only the clock needs de-noising;
   min is the standard low-noise estimator for a ratio gate). *)
let best_of ~n ~repeat ?config d tr =
  let rec go i (best_r, best_t) =
    if i >= n then (best_r, best_t)
    else
      let r, t = Bench_common.measure ~repeat ?config d tr in
      go (i + 1) (if t < best_t then (r, t) else (best_r, best_t))
  in
  go 1 (Bench_common.measure ~repeat ?config d tr)

(* Expected racy-variable recall of one frontier point: the mean over
   [gate_seeds] of single-run recall at that rate (a single seeded run
   of a ~1-racing-pair workload recalls almost nothing at low rates —
   the mean over independent seeds is the unbiased frontier height). *)
let mean_recall ~oracle ~rate d tr =
  if oracle = [] then -1.
  else
    Bench_common.mean
      (List.map
         (fun seed ->
           let cfg = config ~rate ~budget:0 ~seed in
           recall ~oracle (racy_vars (Driver.run ~config:cfg d tr)))
         gate_seeds)

let run ~scale ~repeat () =
  Printf.printf
    "== Sampling: recall-vs-slowdown frontier ==\n";
  Printf.printf
    "(sequential wall time, best batch of %d; budget 0 so the rate \
     alone drives the frontier; recall is the mean over %d seeds of \
     single-run racy-variable recall vs the FastTrack oracle)\n"
    (max 1 repeat) (List.length gate_seeds);
  let d = (module Sampling_ft : Detector.S) in
  let ft = Bench_common.detector "FastTrack" in
  let t =
    Table.create
      ~columns:
        ([ ("Workload", Table.Left); ("Events", Table.Right) ]
        @ List.concat_map
            (fun r ->
              [ (Printf.sprintf "@%.2f(ms)" r, Table.Right);
                (Printf.sprintf "@%.2f rec" r, Table.Right) ])
            rates)
  in
  List.iter
    (fun name ->
      match Workloads.find name with
      | None -> Printf.printf "unknown workload %s, skipped\n" name
      | Some w ->
        let tr = Bench_common.trace_of ~scale w in
        let events = Trace.length tr in
        let base = Bench_common.base_time ~repeat tr in
        let ft_result, ft_elapsed = Bench_common.measure ~repeat ft tr in
        let oracle = racy_vars ft_result in
        let cells =
          List.concat_map
            (fun rate ->
              let cfg =
                config ~rate ~budget:0
                  ~seed:Config.default_sampling.Config.seed
              in
              let result, elapsed = best_of ~n:2 ~repeat ~config:cfg d tr in
              if
                rate = 1.0
                && result.Driver.warnings <> ft_result.Driver.warnings
              then
                failwith
                  (Printf.sprintf
                     "%s: rate 1.0 warnings differ from FastTrack; \
                      precision regression"
                     w.Workload.name);
              let rec_ = mean_recall ~oracle ~rate d tr in
              Bench_json.add
                { Bench_json.experiment = "sampling";
                  workload = w.Workload.name;
                  tool = Printf.sprintf "Sampling@%.2f" rate;
                  jobs = 1; plan = "seq"; events; elapsed;
                  throughput = Bench_json.throughput ~events ~elapsed;
                  slowdown = Bench_common.slowdown elapsed base;
                  speedup =
                    (if elapsed > 0. then ft_elapsed /. elapsed else 0.);
                  warnings = List.length result.Driver.warnings;
                  imbalance = 1.0; static_elim = false;
                  dropped_frac = 0.; prefix_wall = 0.; prefix_frac = 0.;
                  amdahl_ceiling = 0.; rate; recall = rec_;
                  static_ms = -1. };
              [ Printf.sprintf "%.2f" (elapsed *. 1000.);
                (if rec_ < 0. then "-" else Printf.sprintf "%.2f" rec_) ])
            rates
        in
        Table.add_row t
          ([ w.Workload.name; string_of_int events ] @ cells))
    workload_names;
  Table.print t;
  (* CI gate 1: at the default config (rate/budget/seed of
     Config.default_sampling), every oracle race on the racy Table 1
     workloads is recalled within [gate_seeds] independently-seeded
     runs. *)
  List.iter
    (fun name ->
      match Workloads.find name with
      | None -> ()
      | Some w ->
        let tr = Bench_common.trace_of ~scale w in
        let oracle = racy_vars (Driver.run ft tr) in
        let caught =
          List.concat_map
            (fun seed ->
              let cfg =
                Config.with_sampling
                  { Config.default_sampling with Config.seed }
                  Config.default
              in
              racy_vars (Driver.run ~config:cfg d tr))
            gate_seeds
          |> List.sort_uniq Var.compare
        in
        Printf.printf "SAMPLING_RECALL %s %.2f\n" w.Workload.name
          (recall ~oracle caught))
    racy_workloads;
  (* CI gate 2: default-rate sampling throughput vs sequential
     FastTrack on moldyn (the compute-bound Table 1 trace). *)
  (match Workloads.find "moldyn" with
  | None -> ()
  | Some w ->
    let tr = Bench_common.trace_of ~scale w in
    let _, ft_elapsed = best_of ~n:3 ~repeat ft tr in
    let _, sp_elapsed =
      best_of ~n:3 ~repeat
        ~config:(Config.with_sampling Config.default_sampling Config.default)
        d tr
    in
    Printf.printf "SAMPLING_SPEEDUP_VS_FT moldyn %.2f\n"
      (if sp_elapsed > 0. then ft_elapsed /. sp_elapsed else 0.))
