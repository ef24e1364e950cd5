(* Experiment A5 (ours) — sharded parallel analysis driver.

   FastTrack's per-variable shadow states are independent; only the
   sync state (C/L of Figure 4) is shared, and it is written only by
   synchronization events.  Driver.run_parallel therefore shards the
   event stream by variable across detector instances on OCaml 5
   domains.  Under the default work-stealing plan the sync state is
   replayed exactly once into a shared read-only Sync_timeline and
   [factor x jobs] fine-grained access-only items are pulled
   dynamically by the workers; the legacy static plan (jobs shards,
   full sync broadcast per shard) is measured alongside so the JSON
   records quantify what the timeline + stealing redesign bought.

   This experiment measures the throughput axis — wall-clock speedup
   over the sequential driver at 1/2/4/8 workers, per plan — and
   re-checks the precision axis: the sequential run must report the
   workload's [expected_races] warnings, and the merged warning list
   must be identical to the sequential one on every measured
   workload.  Either failure aborts the run.

   Speedup is bounded by the host's core count (reported below; CI
   runners have several, the paper's overhead argument is per-core).
   The static plan is additionally capped by its broadcast fraction
   (every shard replays all sync events: ceiling roughly
   accesses / (accesses/N + syncs)); the stealing plan only by the
   serial timeline prefix (Amdahl on the ~sync% of the trace). *)

let jobs_list = [ 1; 2; 4; 8 ]
let workload_names = [ "moldyn"; "raytracer"; "sor"; "montecarlo" ]
let tool = "FastTrack"

let best_wall ~repeat f =
  let rec go n best =
    if n = 0 then best
    else
      let _, t = Obs_clock.wall_time f in
      go (n - 1) (Float.min best t)
  in
  go (max 1 repeat) infinity

(* Like [best_wall] but keeping the fastest run's result alongside its
   wall time, so the recorded prefix accounting belongs to the same
   run the elapsed cell reports rather than to an arbitrary one. *)
let best_run ~repeat f =
  let rec go n best =
    if n = 0 then best
    else
      let r, t = Obs_clock.wall_time f in
      let best =
        match best with Some (_, bt) when bt <= t -> best | _ -> Some (r, t)
      in
      go (n - 1) best
  in
  match go (max 1 repeat) None with
  | Some x -> x
  | None -> assert false

let same_warnings (a : Warning.t list) (b : Warning.t list) = a = b

let run ~scale ~repeat () =
  Printf.printf
    "== Parallel: variable-sharded FastTrack on OCaml 5 domains ==\n";
  Printf.printf
    "(wall-clock time, best of %d; host has %d recommended domain(s) — \
     speedups are capped by that)\n"
    (max 1 repeat) (Driver.default_jobs ());
  let d = Bench_common.detector tool in
  let t =
    Table.create
      ~columns:
        ([ ("Workload", Table.Left); ("Events", Table.Right);
           ("Sync%", Table.Right); ("Seq(ms)", Table.Right) ]
        @ List.concat_map
            (fun j ->
              [ (Printf.sprintf "x%d(ms)" j, Table.Right);
                (Printf.sprintf "x%d speedup" j, Table.Right) ])
            jobs_list)
  in
  List.iter
    (fun name ->
      match Workloads.find name with
      | None -> Printf.printf "unknown workload %s, skipped\n" name
      | Some w ->
        let tr = Bench_common.trace_of ~scale w in
        let events = Trace.length tr in
        let reads, writes, _ = Trace.counts tr in
        let sync_pct =
          100.
          *. float_of_int (events - reads - writes)
          /. float_of_int (max events 1)
        in
        let base = Bench_common.base_time ~repeat tr in
        let seq_result = Driver.run d tr in
        let seq_warnings = List.length seq_result.Driver.warnings in
        if seq_warnings <> w.expected_races then
          failwith
            (Printf.sprintf
               "%s: sequential run reported %d warning(s), the workload \
                expects %d; precision regression"
               w.name seq_warnings w.expected_races);
        let seq_elapsed =
          best_wall ~repeat (fun () -> ignore (Driver.run d tr))
        in
        Bench_json.add
          { Bench_json.experiment = "parallel"; workload = w.name; tool;
            jobs = 1; plan = "seq"; events; elapsed = seq_elapsed;
            throughput = Bench_json.throughput ~events ~elapsed:seq_elapsed;
            slowdown = Bench_common.slowdown seq_elapsed base;
            speedup = 1.0;
            warnings = seq_warnings;
            imbalance = 1.0; static_elim = false; dropped_frac = 0.;
            prefix_wall = 0.; prefix_frac = 0.; amdahl_ceiling = 0.;
            rate = -1.; recall = -1.; static_ms = -1. };
        (* the jobs=1 stealing row's measured serial fraction: the [s]
           every later stealing cell's Amdahl ceiling is derived from *)
        let stealing_s1 = ref None in
        (* one measured row per (jobs, plan); the printed table shows
           the default (stealing) columns, the JSON carries both *)
        let measure ~jobs plan =
          let par_result = Driver.run_parallel ~jobs ~plan d tr in
          if
            not
              (same_warnings seq_result.Driver.warnings
                 par_result.Driver.warnings)
          then
            failwith
              (Printf.sprintf
                 "%s: parallel (%d jobs, %s) warnings differ from \
                  sequential; precision regression"
                 w.name jobs
                 (Shard.kind_to_string plan));
          let best, elapsed =
            best_run ~repeat (fun () -> Driver.run_parallel ~jobs ~plan d tr)
          in
          let speedup =
            if elapsed > 0. then seq_elapsed /. elapsed else 0.
          in
          let prefix_wall = best.Driver.prefix_wall in
          let prefix_frac = Driver.prefix_frac best in
          (if plan = Shard.Stealing && jobs = 1 then
             stealing_s1 := Some prefix_frac);
          let amdahl_ceiling =
            match (plan, !stealing_s1) with
            | Shard.Stealing, Some s1 ->
              1. /. (s1 +. ((1. -. s1) /. float_of_int (max 1 jobs)))
            | _ -> 0.
          in
          Bench_json.add
            { Bench_json.experiment = "parallel"; workload = w.name;
              tool; jobs; plan = Shard.kind_to_string plan; events;
              elapsed;
              throughput = Bench_json.throughput ~events ~elapsed;
              slowdown = Bench_common.slowdown elapsed base;
              speedup;
              warnings = List.length par_result.Driver.warnings;
              imbalance = par_result.Driver.imbalance;
              static_elim = false; dropped_frac = 0.;
              prefix_wall; prefix_frac; amdahl_ceiling; rate = -1.;
              recall = -1.; static_ms = -1. };
          (elapsed, speedup)
        in
        let cells =
          List.concat_map
            (fun jobs ->
              ignore (measure ~jobs Shard.Static);
              let elapsed, speedup = measure ~jobs Shard.Stealing in
              [ Printf.sprintf "%.1f" (elapsed *. 1000.);
                Printf.sprintf "%.2fx" speedup ])
            jobs_list
        in
        Table.add_row t
          ([ w.name; Table.fmt_int events;
             Printf.sprintf "%.1f" sync_pct;
             Printf.sprintf "%.1f" (seq_elapsed *. 1000.) ]
          @ cells))
    workload_names;
  Table.print t;
  print_endline
    "(precision re-checked: every sequential run above reported its \
     workload's expected warning count, and every parallel run \
     produced warnings byte-identical to it)"
