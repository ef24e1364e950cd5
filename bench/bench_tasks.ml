(* Experiment A10 (ours) — the async-finish task tier.

   Two questions, one table:

   1. What does the series-parallel analysis cost?  The DPST is built
      once per program (Euler tour + sparse table + ancestor arrays);
      we time the whole ahead-of-run analysis and report the tree's
      size next to it.  The structural cost is paid before the first
      event and amortized over every dynamic run through Static_cache.

   2. What does it buy?  On the task family the skeleton alone proves
      nothing (there are no join edges — finish scopes own the
      ordering), so every certified access is certified *by the task
      tier* ([Task_local]/[Sp_ordered]/[Read_only]).  We run FastTrack
      with and without [--static-elim], assert byte-identical
      warnings, and report the speedup.

   Greppable lines for the CI gate:

     TASKS_DPST_BUILD <workload> nodes=<n> ms=<t>
     TASKS_ELIM <workload> certified=<frac> speedup=<x> warnings=<n>
     TASKS_ELIM_SPEEDUP geomean=<x>

   Two JSON rows per workload (static_elim false/true), experiment
   "tasks", mirroring the elimination experiment's schema. *)

let tool = "FastTrack"

let run ~scale ~repeat () =
  Printf.printf "== Tasks: async-finish tier — DPST cost and elimination ==\n";
  Printf.printf
    "(wall-clock mean of >=%d run(s); warnings asserted identical with \
     elimination on)\n"
    (max 1 repeat);
  let d = Bench_common.detector tool in
  let t =
    Table.create
      ~columns:
        [ ("Workload", Table.Left); ("Events", Table.Right);
          ("DPST", Table.Right); ("Build(ms)", Table.Right);
          ("Certified%", Table.Right); ("Base(ms)", Table.Right);
          ("Elim(ms)", Table.Right); ("Speedup", Table.Right);
          ("Warnings", Table.Right) ]
  in
  let speedups = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      let tr = Bench_common.trace_of ~scale w in
      let events = Trace.length tr in
      (* analysis cost: fresh derivations, bypassing the cache *)
      let reps = max 1 repeat in
      let build_s = ref 0. in
      let summary = ref (Static.analyze (w.Workload.program ~scale)) in
      for _ = 1 to reps do
        let s, dt =
          Obs_clock.wall_time (fun () ->
              Static.analyze (w.Workload.program ~scale))
        in
        summary := s;
        build_s := !build_s +. dt
      done;
      let build_s = !build_s /. float_of_int reps in
      let summary = !summary in
      let nodes =
        match summary.Static.sp with
        | Some d -> Dpst.node_count d
        | None -> 0
      in
      let skip = Static.eliminator ~granularity:Var.Fine summary in
      let base = Bench_common.base_time ~repeat tr in
      let r0, base_s = Bench_common.measure ~repeat d tr in
      let config = Config.with_static_elim skip Config.default in
      let r1, elim_s = Bench_common.measure ~repeat ~config d tr in
      if r0.Driver.warnings <> r1.Driver.warnings then
        failwith
          (Printf.sprintf
             "%s: warnings differ with static elimination on; soundness \
              regression"
             w.Workload.name);
      let certified = Static.elimination_ratio summary in
      let dropped_frac =
        float_of_int r1.Driver.stats.Stats.eliminated
        /. float_of_int (max 1 events)
      in
      let speedup = if elim_s > 0. then base_s /. elim_s else 0. in
      speedups := speedup :: !speedups;
      let record ~static_elim ~elapsed ~dropped_frac (r : Driver.result) =
        Bench_json.add
          { Bench_json.experiment = "tasks";
            workload = w.Workload.name; tool; jobs = 1; plan = "seq";
            events; elapsed;
            throughput = Bench_json.throughput ~events ~elapsed;
            slowdown = Bench_common.slowdown elapsed base;
            speedup = (if static_elim then speedup else 1.0);
            warnings = List.length r.Driver.warnings;
            imbalance = 1.0; static_elim; dropped_frac;
            prefix_wall = build_s; prefix_frac = 0.; amdahl_ceiling = 0.;
            rate = -1.; recall = -1.; static_ms = -1. }
      in
      record ~static_elim:false ~elapsed:base_s ~dropped_frac:0. r0;
      record ~static_elim:true ~elapsed:elim_s ~dropped_frac r1;
      Printf.printf "TASKS_DPST_BUILD %s nodes=%d ms=%.3f\n"
        w.Workload.name nodes (build_s *. 1000.);
      Printf.printf "TASKS_ELIM %s certified=%.3f speedup=%.2f warnings=%d\n"
        w.Workload.name certified speedup
        (List.length r1.Driver.warnings);
      Table.add_row t
        [ w.Workload.name; Table.fmt_int events; string_of_int nodes;
          Printf.sprintf "%.3f" (build_s *. 1000.);
          Printf.sprintf "%.1f" (100. *. certified);
          Printf.sprintf "%.2f" (base_s *. 1000.);
          Printf.sprintf "%.2f" (elim_s *. 1000.);
          Printf.sprintf "%.2fx" speedup;
          string_of_int (List.length r1.Driver.warnings) ])
    Workloads.tasks;
  Table.print t;
  Printf.printf "TASKS_ELIM_SPEEDUP geomean=%.2f\n"
    (Bench_common.geo_mean !speedups)
