(* Experiment E1 — Table 1: per-benchmark slowdown for all seven tools
   plus warning counts for the six race detectors. *)

let tools =
  [ "Empty"; "Eraser"; "MultiRace"; "Goldilocks"; "BasicVC"; "DJIT+";
    "FastTrack" ]

let warning_tools =
  [ "Eraser"; "MultiRace"; "Goldilocks"; "BasicVC"; "DJIT+"; "FastTrack" ]

type row = {
  workload : Workload.t;
  events : int;
  base : float;
  slowdowns : (string * float) list;
  warnings : (string * int) list;
}

let run_row ~scale ~repeat (w : Workload.t) =
  let tr = Bench_common.trace_of ~scale w in
  let base = Bench_common.base_time ~repeat tr in
  let results =
    List.map
      (fun name ->
        let r, elapsed =
          Bench_common.measure ~repeat (Bench_common.detector name) tr
        in
        (name, (Bench_common.slowdown elapsed base, List.length r.warnings)))
      tools
  in
  { workload = w;
    events = Trace.length tr;
    base;
    slowdowns = List.map (fun (n, (s, _)) -> (n, s)) results;
    warnings =
      List.filter_map
        (fun (n, (_, w)) ->
          if List.mem n warning_tools then Some (n, w) else None)
        results }

let render rows =
  let t =
    Table.create
      ~columns:
        ([ ("Program", Table.Left); ("Events", Table.Right);
           ("Base(ms)", Table.Right) ]
        @ List.map (fun n -> (n, Table.Right)) tools
        @ List.map (fun n -> ("W:" ^ n, Table.Right)) warning_tools)
  in
  List.iter
    (fun r ->
      Table.add_row t
        ([ r.workload.Workload.name
           ^ (if r.workload.Workload.compute_bound then "" else "*");
           Table.fmt_int r.events;
           Printf.sprintf "%.1f" (r.base *. 1000.) ]
        @ List.map (fun (_, s) -> Table.fmt_slowdown s) r.slowdowns
        @ List.map (fun (_, w) -> string_of_int w) r.warnings))
    rows;
  Table.add_separator t;
  let compute = List.filter (fun r -> r.workload.Workload.compute_bound) rows in
  let avg name =
    Bench_common.mean
      (List.map (fun r -> List.assoc name r.slowdowns) compute)
  in
  let total name =
    List.fold_left (fun acc r -> acc + List.assoc name r.warnings) 0 rows
  in
  Table.add_row t
    ([ "Average"; "-"; "-" ]
    @ List.map (fun n -> Table.fmt_slowdown (avg n)) tools
    @ List.map (fun n -> string_of_int (total n)) warning_tools);
  Table.print t

let print_paper_reference () =
  let name, avgs = Paper_data.table1_averages in
  print_newline ();
  Printf.printf "%s: %s\n" name
    (String.concat ", "
       (List.map (fun (n, v) -> Printf.sprintf "%s %.1f" n v) avgs));
  Printf.printf
    "paper warning totals: Eraser 27, MultiRace 5, Goldilocks 3 (unsound \
     thread-local extension; ours is precise), BasicVC/DJIT+/FastTrack 8\n"

let run ~scale ~repeat () =
  print_endline "== Table 1: slowdowns and warnings ==";
  Printf.printf
    "(slowdown = detector CPU time / bare trace-replay time; programs \
     marked * are not compute-bound and excluded from the average)\n";
  let rows = List.map (run_row ~scale ~repeat) Workloads.table1 in
  List.iter
    (fun r ->
      List.iter
        (fun (tool, s) ->
          Bench_json.add
            { Bench_json.experiment = "table1";
              workload = r.workload.Workload.name; tool; jobs = 1;
              plan = "seq";
              events = r.events; elapsed = s *. r.base;
              throughput =
                Bench_json.throughput ~events:r.events ~elapsed:(s *. r.base);
              slowdown = s;
              speedup = 1.0;
              warnings =
                Option.value ~default:0 (List.assoc_opt tool r.warnings);
              imbalance = 1.0; static_elim = false; dropped_frac = 0.;
              prefix_wall = 0.; prefix_frac = 0.; amdahl_ceiling = 0.;
              rate = -1.; recall = -1.; static_ms = -1. })
        r.slowdowns)
    rows;
  render rows;
  print_paper_reference ();
  rows

let summary rows =
  let get tool =
    Bench_common.mean
      (List.filter_map
         (fun r ->
           if r.workload.Workload.compute_bound then
             Some (List.assoc tool r.slowdowns)
           else None)
         rows)
  in
  (get "BasicVC", get "DJIT+", get "FastTrack", get "Eraser")
