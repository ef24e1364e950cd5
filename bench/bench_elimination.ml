(* Experiment A6 (ours) — sound static check elimination.

   The ahead-of-run analysis (lib/static) certifies variables whose
   every conflicting access pair is ordered by the program's structure
   (thread-locality, read-onlyness, a common lock, the fork/join tree,
   deterministic barrier phases).  Config.static_elim then skips the
   dynamic checks on certified variables before the detector sees
   them.  Unlike the Section 5.2 dynamic prefilters this is sound —
   footnote 6's coverage caveat does not apply — so the gate below
   asserts byte-identical warnings with elimination on and off, and
   the table reports what the skipped checks bought.

   Two rows per workload go into the JSON ([static_elim] false/true,
   [dropped_frac] = eliminated events / trace length); the elimination
   soundness CI job diffs the warning counts between them.  The
   Speedup column compares detector runs only; Static(ms) is what the
   pre-pass itself costs (one uncached Static.analyze of the program,
   mean of the repeats), recorded as [static_ms] on the elimination
   row. *)

let workload_names =
  [ "moldyn"; "sor"; "lufact"; "sparse"; "series"; "crypt"; "raytracer";
    "tsp"; "hedc" ]

let tool = "FastTrack"

let run ~scale ~repeat () =
  Printf.printf "== Elimination: ahead-of-run certificates vs %s ==\n" tool;
  Printf.printf
    "(wall-clock mean of >=%d run(s); warnings asserted identical with \
     elimination on)\n"
    (max 1 repeat);
  let d = Bench_common.detector tool in
  let t =
    Table.create
      ~columns:
        [ ("Workload", Table.Left); ("Events", Table.Right);
          ("Certified%", Table.Right); ("Base(ms)", Table.Right);
          ("Elim(ms)", Table.Right); ("Speedup", Table.Right);
          ("Static(ms)", Table.Right);
          ("Warnings", Table.Right) ]
  in
  let speedups = ref [] in
  List.iter
    (fun name ->
      match Workloads.find name with
      | None -> Printf.printf "unknown workload %s, skipped\n" name
      | Some w ->
        let tr = Bench_common.trace_of ~scale w in
        let events = Trace.length tr in
        (* The certificates come from the program at the same scale the
           trace was generated from; the interleaving seed does not
           affect the program structure. *)
        let summary =
          Static_cache.analyze ~workload:w.Workload.name ~scale (fun () ->
              w.Workload.program ~scale)
        in
        let skip = Static.eliminator ~granularity:Var.Fine summary in
        let static_s =
          let program = w.Workload.program ~scale in
          let runs = max 1 repeat in
          let t0 = Unix.gettimeofday () in
          for _ = 1 to runs do
            ignore (Sys.opaque_identity (Static.analyze program))
          done;
          (Unix.gettimeofday () -. t0) /. float_of_int runs
        in
        let base = Bench_common.base_time ~repeat tr in
        let r0, base_s = Bench_common.measure ~repeat d tr in
        let config = Config.with_static_elim skip Config.default in
        let r1, elim_s = Bench_common.measure ~repeat ~config d tr in
        if r0.Driver.warnings <> r1.Driver.warnings then
          failwith
            (Printf.sprintf
               "%s: warnings differ with static elimination on; \
                soundness regression"
               w.Workload.name);
        let dropped_frac =
          float_of_int r1.Driver.stats.Stats.eliminated
          /. float_of_int (max 1 events)
        in
        let speedup = if elim_s > 0. then base_s /. elim_s else 0. in
        speedups := speedup :: !speedups;
        let record ~static_elim ~elapsed ~dropped_frac (r : Driver.result) =
          Bench_json.add
            { Bench_json.experiment = "elimination";
              workload = w.Workload.name; tool; jobs = 1; plan = "seq";
              events; elapsed;
              throughput = Bench_json.throughput ~events ~elapsed;
              slowdown = Bench_common.slowdown elapsed base;
              speedup = (if static_elim then speedup else 1.0);
              warnings = List.length r.Driver.warnings;
              imbalance = 1.0; static_elim; dropped_frac;
              prefix_wall = 0.; prefix_frac = 0.; amdahl_ceiling = 0.;
              rate = -1.; recall = -1.;
              static_ms = (if static_elim then static_s *. 1000. else -1.) }
        in
        record ~static_elim:false ~elapsed:base_s ~dropped_frac:0. r0;
        record ~static_elim:true ~elapsed:elim_s ~dropped_frac r1;
        Table.add_row t
          [ w.Workload.name; Table.fmt_int events;
            Printf.sprintf "%.1f" (100. *. Static.elimination_ratio summary);
            Printf.sprintf "%.2f" (base_s *. 1000.);
            Printf.sprintf "%.2f" (elim_s *. 1000.);
            Printf.sprintf "%.2fx" speedup;
            Printf.sprintf "%.2f" (static_s *. 1000.);
            string_of_int (List.length r1.Driver.warnings) ])
    workload_names;
  Table.print t;
  Printf.printf "geometric-mean speedup: %.2fx\n"
    (Bench_common.geo_mean !speedups)
