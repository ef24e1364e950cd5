(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (DESIGN.md's experiment index E1-E6 plus the A1
   ablation), printing our measurements next to the published numbers.

     dune exec bench/main.exe            -- all experiments
     dune exec bench/main.exe -- table1  -- one experiment
     dune exec bench/main.exe -- --scale 4 --repeat 5 table1
     dune exec bench/main.exe -- --json bench-parallel.json parallel

   --json FILE additionally writes every machine-readable record the
   chosen experiments pushed (tool / elapsed / slowdown / warning
   count / shard imbalance, plus host metadata) to FILE; see
   bench_json.mli.

   --metrics FILE enables the observability layer for the harness
   itself: one span per experiment on a shared wall-clock timeline,
   GC samples at experiment boundaries, and the Obs_export JSON
   document written to FILE (schema ftrace.obs/2), whose top-level
   "bench" object counts the experiments run and the records
   pushed. *)

let experiments :
    (string * (scale:int -> repeat:int -> unit -> unit)) list =
  [ ("table1", fun ~scale ~repeat () ->
        ignore (Bench_table1.run ~scale ~repeat ()));
    ("table2", fun ~scale ~repeat () ->
        ignore (Bench_table2.run ~scale ~repeat ()));
    ("table3", Bench_table3.run);
    ("figure2", Bench_figure2.run);
    ("compose", Bench_compose.run);
    ("eclipse", Bench_eclipse.run);
    ("ablation", Bench_ablation.run);
    ("scaling", Bench_scaling.run);
    ("churn", Bench_churn.run);
    ("parallel", Bench_parallel.run);
    ("elimination", Bench_elimination.run);
    ("tasks", Bench_tasks.run);
    ("live", Bench_live.run);
    ("profile", Bench_profile.run);
    ("sampling", Bench_sampling.run);
    ("micro", fun ~scale:_ ~repeat:_ () -> Bench_micro.run ()) ]

(* Experiments whose headline numbers are multicore speedups: running
   them on a starved host produces cells that look like measurements
   but are noise (every jobs>1 cell < 1x on a 1-core container).
   Refuse below the floor unless the caller owns the decision with
   --allow-few-cores; the JSON host header always records the core
   count, so downstream readers can tell. *)
let parallel_experiments = [ "parallel" ]
let min_cores = 4

let usage () =
  prerr_endline
    "usage: main.exe [--scale N] [--repeat N] [--json FILE] \
     [--metrics FILE] [--allow-few-cores] [experiment ...]";
  Printf.eprintf "experiments: %s (default: all)\n"
    (String.concat " " (List.map fst experiments));
  exit 2

let () =
  let scale = ref 2 in
  let repeat = ref 3 in
  let json = ref None in
  let metrics = ref None in
  let allow_few_cores = ref false in
  let chosen = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := int_of_string v;
      parse rest
    | "--repeat" :: v :: rest ->
      repeat := int_of_string v;
      parse rest
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | "--metrics" :: path :: rest ->
      metrics := Some path;
      parse rest
    | "--allow-few-cores" :: rest ->
      allow_few_cores := true;
      parse rest
    | name :: rest when List.mem_assoc name experiments ->
      chosen := name :: !chosen;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let chosen =
    match List.rev !chosen with
    | [] -> List.map fst experiments
    | names -> names
  in
  let cores = Obs_cores.recommended () in
  let wants_parallel =
    List.exists (fun n -> List.mem n parallel_experiments) chosen
  in
  if wants_parallel && cores < min_cores then
    if !allow_few_cores then
      Printf.eprintf
        "warning: running parallel experiments on %d core(s) (< %d); \
         speedup cells are NOT multicore measurements (the JSON host \
         header records the core count)\n"
        cores min_cores
    else begin
      Printf.eprintf
        "error: parallel experiments need >= %d cores, host has %d; \
         pass --allow-few-cores to run anyway (speedup cells will not \
         be multicore measurements)\n"
        min_cores cores;
      exit 3
    end;
  Printf.printf
    "FastTrack reproduction benchmarks (scale %d, repeat %d)\n\n" !scale
    !repeat;
  let obs =
    (* the harness document keeps its end-of-run heap walk: one per
       invocation, next to experiments that run for seconds *)
    if !metrics <> None then Obs.create ~heap_walk:true () else Obs.disabled
  in
  List.iter
    (fun name ->
      Obs.gc_sample obs;
      Obs.span obs (Printf.sprintf "experiment.%s" name) (fun () ->
          (List.assoc name experiments) ~scale:!scale ~repeat:!repeat ());
      print_newline ())
    chosen;
  Option.iter (Bench_json.write ~scale:!scale ~repeat:!repeat) !json;
  Option.iter
    (fun path ->
      Obs.gc_sample_final obs;
      Obs_export.write_file ~path obs
        ~extra:
          [ ("bench",
             Obs_json.obj
               [ ("experiments", Obs_json.int (List.length chosen));
                 ("records",
                  Obs_json.int (List.length (Bench_json.recorded ()))) ]) ];
      Printf.printf "wrote harness metrics to %s\n" path)
    !metrics
