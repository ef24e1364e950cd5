(* Every workload must produce a feasible trace whose warning counts
   per tool match the design (Table 1 / Section 5.3 shapes). *)

let run d tr = List.length (Driver.run d tr).warnings

let check_workload (w : Workload.t) =
  let tr = Workload.trace ~seed:11 ~scale:1 w in
  (match Validity.check tr with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: invalid trace: %s" w.name
      (Format.asprintf "%a" Validity.pp_violation v));
  let ft = run (module Fasttrack) tr in
  Alcotest.(check int)
    (w.name ^ ": fasttrack races") w.expected_races ft;
  let djit = run (module Djit_plus) tr in
  let basic = run (module Basic_vc) tr in
  let gold = run (module Goldilocks) tr in
  Alcotest.(check int) (w.name ^ ": djit+ agrees") ft djit;
  Alcotest.(check int) (w.name ^ ": basicvc agrees") ft basic;
  Alcotest.(check int) (w.name ^ ": goldilocks agrees") ft gold

let eraser_expectations =
  (* benchmark, expected Eraser warnings, expected MultiRace warnings *)
  [ ("colt", 3, 0); ("crypt", 0, 0); ("lufact", 4, 0); ("moldyn", 0, 0);
    ("montecarlo", 0, 0); ("mtrt", 1, 1); ("raja", 0, 0);
    ("raytracer", 1, 1); ("sparse", 0, 0); ("series", 1, 0); ("sor", 3, 0);
    ("tsp", 9, 1); ("elevator", 0, 0); ("philo", 0, 0); ("hedc", 2, 1);
    ("jbb", 3, 1) ]

let test_table1 () = List.iter check_workload Workloads.table1
let test_eclipse () = List.iter check_workload Workloads.eclipse

let test_eraser_counts () =
  List.iter
    (fun (name, eraser_expected, multirace_expected) ->
      match Workloads.find name with
      | None -> Alcotest.failf "unknown workload %s" name
      | Some w ->
        let tr = Workload.trace ~seed:11 ~scale:1 w in
        Alcotest.(check int) (name ^ ": eraser") eraser_expected
          (run (module Eraser) tr);
        Alcotest.(check int) (name ^ ": multirace") multirace_expected
          (run (module Multi_race) tr))
    eraser_expectations

let test_eclipse_eraser_dominates () =
  List.iter
    (fun (w : Workload.t) ->
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      let eraser = run (module Eraser) tr in
      let ft = run (module Fasttrack) tr in
      if eraser <= 2 * ft then
        Alcotest.failf "%s: eraser (%d) should far exceed fasttrack (%d)"
          w.name eraser ft)
    Workloads.eclipse

(* Warning counts must not depend on the scheduler's interleaving:
   the races and detector quirks are built into the happens-before
   structure, not the schedule. *)
let test_seed_stability () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun seed ->
          let tr = Workload.trace ~seed ~scale:1 w in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d: fasttrack" w.name seed)
            w.expected_races
            (run (module Fasttrack) tr))
        [ 3; 7; 23 ])
    Workloads.table1

let test_eraser_seed_stability () =
  List.iter
    (fun (name, eraser_expected, _) ->
      let w = Option.get (Workloads.find name) in
      List.iter
        (fun seed ->
          let tr = Workload.trace ~seed ~scale:1 w in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d: eraser" name seed)
            eraser_expected
            (run (module Eraser) tr))
        [ 3; 23 ])
    eraser_expectations

let test_scale_grows_trace () =
  let w = Option.get (Workloads.find "sor") in
  let n1 = Trace.length (Workload.trace ~scale:1 w) in
  let n3 = Trace.length (Workload.trace ~scale:3 w) in
  Alcotest.(check bool) "roughly linear" true
    (n3 > 2 * n1 && n3 < 4 * n1)

let test_trace_text_roundtrip () =
  (* every workload trace survives the CLI's textual format *)
  List.iter
    (fun (w : Workload.t) ->
      let tr = Workload.trace ~scale:1 w in
      match Trace.of_string (Trace.to_string tr) with
      | Error msg -> Alcotest.failf "%s: %s" w.name msg
      | Ok tr' ->
        Alcotest.(check int) (w.name ^ " length") (Trace.length tr)
          (Trace.length tr');
        Alcotest.(check bool) (w.name ^ " same events") true
          (Trace.to_list tr' = Trace.to_list tr);
        Alcotest.(check int) (w.name ^ " same verdicts")
          (run (module Fasttrack) tr) (run (module Fasttrack) tr'))
    Workloads.all

let test_thread_counts_match_table1 () =
  List.iter2
    (fun (w : Workload.t) (row : Paper_data_check.t) ->
      Alcotest.(check string) "order matches" row.name w.name;
      Alcotest.(check int) (w.name ^ " threads") row.threads w.threads)
    Workloads.table1 Paper_data_check.table1

(* The Table 2 shape, as a regression: on every benchmark FastTrack
   allocates no more vector clocks than DJIT+ and performs far fewer
   O(n) operations. *)
let test_vc_usage_shape () =
  List.iter
    (fun (w : Workload.t) ->
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      let djit = (Driver.run (module Djit_plus) tr).stats in
      let ft = (Driver.run (module Fasttrack) tr).stats in
      if ft.Stats.vc_allocs > djit.Stats.vc_allocs then
        Alcotest.failf "%s: FT allocated more VCs (%d > %d)" w.name
          ft.Stats.vc_allocs djit.Stats.vc_allocs;
      if ft.Stats.vc_ops > djit.Stats.vc_ops then
        Alcotest.failf "%s: FT performed more VC ops (%d > %d)" w.name
          ft.Stats.vc_ops djit.Stats.vc_ops)
    Workloads.table1

let suite =
  ( "workloads",
    [ Alcotest.test_case "table1 precise counts" `Quick test_table1;
      Alcotest.test_case "eclipse precise counts" `Quick test_eclipse;
      Alcotest.test_case "eraser/multirace counts" `Quick test_eraser_counts;
      Alcotest.test_case "eclipse eraser dominates" `Quick
        test_eclipse_eraser_dominates;
      Alcotest.test_case "seed stability (precise)" `Quick
        test_seed_stability;
      Alcotest.test_case "seed stability (eraser)" `Quick
        test_eraser_seed_stability;
      Alcotest.test_case "scale grows trace" `Quick test_scale_grows_trace;
      Alcotest.test_case "text roundtrip" `Quick test_trace_text_roundtrip;
      Alcotest.test_case "thread counts match Table 1" `Quick
        test_thread_counts_match_table1;
      Alcotest.test_case "Table 2 shape (VC usage)" `Quick
        test_vc_usage_shape ] )
