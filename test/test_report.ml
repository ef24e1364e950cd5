(* The provenance layer's contract (ISSUE 3):

   1. the flight recorder is a bounded ring — wraparound keeps the
      newest [capacity] accesses and counts the dropped ones — and a
      disabled recorder NEVER changes analysis results (warnings
      byte-identical on/off, sequentially and sharded);
   2. witnesses captured on the warning path actually prove the race:
      the unordered clock component checks out, the reconstructed
      first-access index points at a real conflicting access, and the
      replayable slice reproduces the warning;
   3. the ftrace.report/1 and ftrace.trace/1 JSON documents parse and
      carry the advertised fields (reusing Test_obs's reader);
   4. Driver.result's timing fields carry their documented units (cpu
      and wall are separate clocks; the old [elapsed] alias is gone). *)

let trace_of name =
  let w = Option.get (Workloads.find name) in
  Workload.trace ~seed:11 ~scale:1 w

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)

let test_recorder_disabled () =
  let r = Obs_recorder.disabled in
  Alcotest.(check bool) "disabled" false (Obs_recorder.is_enabled r);
  Alcotest.(check int) "capacity 0" 0 (Obs_recorder.capacity r);
  (* all operations are inert no-ops *)
  Obs_recorder.note_acquire r ~tid:0 ~lock:1;
  Obs_recorder.record r ~key:7 ~index:0 ~tid:0 ~op:Obs_recorder.Read
    ~epoch:1 ~clock:1;
  Alcotest.(check int) "nothing recorded" 0 (Obs_recorder.recorded r);
  Alcotest.(check (list int)) "no keys" [] (Obs_recorder.keys r);
  Alcotest.(check int) "no entries" 0
    (List.length (Obs_recorder.entries r ~key:7));
  Alcotest.(check bool) "disabled shard view is itself" false
    (Obs_recorder.is_enabled (Obs_recorder.shard_view r))

let test_recorder_wraparound () =
  (* capacity 3, 5 accesses: the ring must hold exactly the newest 3,
     oldest first, and account for the 2 overwritten. *)
  let r = Obs_recorder.create ~capacity:3 () in
  for i = 1 to 5 do
    Obs_recorder.record r ~key:42 ~index:(100 + i) ~tid:(i mod 2)
      ~op:(if i mod 2 = 0 then Obs_recorder.Write else Obs_recorder.Read)
      ~epoch:i ~clock:i
  done;
  let entries = Obs_recorder.entries r ~key:42 in
  Alcotest.(check int) "ring holds capacity" 3 (List.length entries);
  Alcotest.(check (list int)) "newest 3, oldest first" [ 103; 104; 105 ]
    (List.map (fun (e : Obs_recorder.entry) -> e.Obs_recorder.e_index)
       entries);
  Alcotest.(check int) "recorded counts all" 5 (Obs_recorder.recorded r);
  Alcotest.(check int) "dropped = overwritten" 2 (Obs_recorder.dropped r);
  Alcotest.(check int) "one tracked location" 1 (Obs_recorder.vars_tracked r);
  if Obs_recorder.approx_words r <= 0 then
    Alcotest.fail "approx_words should be positive"

let test_recorder_locks () =
  let r = Obs_recorder.create () in
  Obs_recorder.note_acquire r ~tid:1 ~lock:10;
  Obs_recorder.note_acquire r ~tid:1 ~lock:11;
  Obs_recorder.note_acquire r ~tid:2 ~lock:12;
  Obs_recorder.record r ~key:5 ~index:0 ~tid:1 ~op:Obs_recorder.Write
    ~epoch:1 ~clock:1;
  (match Obs_recorder.entries r ~key:5 with
  | [ e ] ->
    Alcotest.(check (array int)) "entry captured T1's locks" [| 10; 11 |]
      e.Obs_recorder.e_locks
  | _ -> Alcotest.fail "expected one entry");
  Obs_recorder.note_release r ~tid:1 ~lock:11;
  Alcotest.(check (array int)) "release pops innermost" [| 10 |]
    (Obs_recorder.locks_held r ~tid:1);
  Alcotest.(check (array int)) "per-thread isolation" [| 12 |]
    (Obs_recorder.locks_held r ~tid:2)

let test_recorder_merge () =
  let parent = Obs_recorder.create ~capacity:2 () in
  let v1 = Obs_recorder.shard_view parent in
  let v2 = Obs_recorder.shard_view parent in
  Obs_recorder.record v1 ~key:1 ~index:0 ~tid:0 ~op:Obs_recorder.Read
    ~epoch:1 ~clock:1;
  Obs_recorder.record v2 ~key:2 ~index:1 ~tid:1 ~op:Obs_recorder.Write
    ~epoch:2 ~clock:1;
  Obs_recorder.merge ~into:parent v1;
  Obs_recorder.merge ~into:parent v2;
  Alcotest.(check (list int)) "disjoint rings moved" [ 1; 2 ]
    (Obs_recorder.keys parent);
  Alcotest.(check int) "totals summed" 2 (Obs_recorder.recorded parent)

(* The recorder must never perturb the analysis: warnings are
   byte-identical with it on or off, sequentially and sharded. *)
let test_recorder_invariance () =
  List.iter
    (fun name ->
      let tr = trace_of name in
      let plain = Driver.run (module Fasttrack) tr in
      let seq_rec = Obs_recorder.create () in
      let with_rec =
        let config = Config.with_recorder seq_rec Config.default in
        Driver.run ~config (module Fasttrack) tr
      in
      Alcotest.(check (list Test_obs.warning))
        (name ^ ": recorder on ≡ off (sequential)")
        plain.Driver.warnings with_rec.Driver.warnings;
      List.iter
        (fun jobs ->
          let config =
            Config.with_recorder (Obs_recorder.create ()) Config.default
          in
          let par =
            Driver.run_parallel ~config ~jobs (module Fasttrack) tr
          in
          Alcotest.(check (list Test_obs.warning))
            (Printf.sprintf "%s: recorder on ≡ off (%d jobs)" name jobs)
            plain.Driver.warnings par.Driver.warnings;
          (* the shard views were merged back: the racy keys' rings
             are visible on the parent recorder *)
          if plain.Driver.warnings <> [] then
            Alcotest.(check bool)
              (name ^ ": merged recorder saw accesses")
              true
              (Obs_recorder.recorded config.Config.recorder > 0);
          (* every shard replays the whole sync stream, so the merged
             recorder holds what the sequential one does: the same
             rings and one complete lock picture *)
          let par_rec = config.Config.recorder in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: merged keys = sequential (%d jobs)" name jobs)
            (Obs_recorder.keys seq_rec) (Obs_recorder.keys par_rec);
          Alcotest.(check int)
            (Printf.sprintf "%s: merged approx_words = sequential (%d jobs)"
               name jobs)
            (Obs_recorder.approx_words seq_rec)
            (Obs_recorder.approx_words par_rec))
        [ 2; 5 ])
    [ "raytracer"; "hedc"; "tsp" ]

(* ------------------------------------------------------------------ *)
(* Witnesses and the enriched report                                  *)

let run_with_report ?(jobs = 1) name =
  let tr = trace_of name in
  let config =
    Config.with_recorder (Obs_recorder.create ()) Config.default
  in
  let result =
    if jobs > 1 then Driver.run_parallel ~config ~jobs (module Fasttrack) tr
    else Driver.run ~config (module Fasttrack) tr
  in
  (tr, result, Report.build ~config ~source:name ~trace:tr result)

let test_witness_correctness () =
  List.iter
    (fun name ->
      let tr, result, report = run_with_report name in
      Alcotest.(check bool)
        (name ^ " has warnings")
        true
        (result.Driver.warnings <> []);
      Alcotest.(check int)
        (name ^ ": one witness per FastTrack warning")
        (List.length result.Driver.warnings)
        (List.length result.Driver.witnesses);
      Alcotest.(check int)
        (name ^ ": one enriched race per warning")
        (List.length result.Driver.warnings)
        (List.length report.Report.races);
      List.iter
        (fun (e : Report.enriched) ->
          let w = Option.get e.Report.witness in
          (* the captured clocks really exhibit the race *)
          (match Witness.unordered w with
          | Some (u, c, c') ->
            Alcotest.(check int)
              (name ^ ": unordered names the first accessor")
              w.Witness.first.Witness.s_tid u;
            if c' >= c then Alcotest.fail "c' must be < c"
          | None -> Alcotest.fail (name ^ ": witness not unordered"));
          (* the reconstructed first access is a real conflicting
             access: right thread, right kind, before the second *)
          (match w.Witness.first.Witness.s_index with
          | None -> Alcotest.fail (name ^ ": first index not recovered")
          | Some i ->
            if i >= w.Witness.index then
              Alcotest.fail "first access must precede the second";
            (match Trace.get tr i with
            | Event.Read { t; _ } | Event.Write { t; _ } ->
              Alcotest.(check int)
                (name ^ ": first index belongs to the first thread")
                w.Witness.first.Witness.s_tid t
            | _ -> Alcotest.fail "first index is not an access"));
          (* at least one sync event for context, flight recorder has
             the racy location's history *)
          Alcotest.(check bool)
            (name ^ ": sync context present")
            true
            (e.Report.sync_path <> []);
          Alcotest.(check bool)
            (name ^ ": recorder history present")
            true (e.Report.history <> []))
        report.Report.races)
    [ "raytracer"; "hedc" ]

(* hedc's thread-pool races have lock operations strictly between at
   least one racing pair: the Between window must be exercised, and
   every sync path — Between or Prefix fallback — must be non-empty
   (the report always has sync context to show). *)
let test_sync_path_between () =
  let _, _, report = run_with_report "hedc" in
  let saw_between = ref false in
  List.iter
    (fun (e : Report.enriched) ->
      (match e.Report.sync_scope with
      | `Between -> saw_between := true
      | `Prefix -> ());
      Alcotest.(check bool) "sync path non-empty" true
        (e.Report.sync_path <> []))
    report.Report.races;
  Alcotest.(check bool) "some race has syncs strictly between" true
    !saw_between

(* Replaying a race's slice (sync prefix + accesses to the racy key)
   through a fresh detector must reproduce the warning: same variable,
   same kind. *)
let test_slice_replays () =
  List.iter
    (fun name ->
      let _, _, report = run_with_report name in
      List.iter
        (fun (e : Report.enriched) ->
          let sliced = Driver.run (module Fasttrack) (Report.slice_trace e) in
          let w = e.Report.warning in
          match
            List.find_opt
              (fun (w' : Warning.t) ->
                Var.equal w'.Warning.x w.Warning.x
                && w'.Warning.kind = w.Warning.kind)
              sliced.Driver.warnings
          with
          | Some _ -> ()
          | None ->
            Alcotest.failf "%s: slice does not reproduce the %s on %s" name
              (Warning.kind_to_string w.Warning.kind)
              (Var.to_string w.Warning.x))
        report.Report.races)
    [ "raytracer"; "hedc" ]

(* Parallel runs produce the same witnesses (merged by trace index). *)
let test_witnesses_parallel () =
  List.iter
    (fun name ->
      let tr = trace_of name in
      let seq = Driver.run (module Fasttrack) tr in
      let par = Driver.run_parallel ~jobs:3 (module Fasttrack) tr in
      Alcotest.(check (list int))
        (name ^ ": witness indices match sequential")
        (List.map (fun (w : Witness.t) -> w.Witness.index)
           seq.Driver.witnesses)
        (List.map (fun (w : Witness.t) -> w.Witness.index)
           par.Driver.witnesses))
    [ "raytracer"; "hedc"; "tsp" ]

(* ------------------------------------------------------------------ *)
(* JSON documents                                                     *)

let test_report_json () =
  let _, result, report = run_with_report "hedc" in
  let j = Test_obs.parse_json (Report.to_string report) in
  Alcotest.(check string) "schema" "ftrace.report/1"
    Test_obs.(as_str (member "schema" j));
  Alcotest.(check string) "source" "hedc"
    Test_obs.(as_str (member "source" j));
  let races = Test_obs.(as_arr (member "races" j)) in
  Alcotest.(check int) "one JSON race per warning"
    (List.length result.Driver.warnings)
    (List.length races);
  List.iter
    (fun race ->
      let witness = Test_obs.member "witness" race in
      let first = Test_obs.member "first" witness in
      let second = Test_obs.member "second" witness in
      (* both sides carry epoch, index and a non-empty vector clock *)
      ignore Test_obs.(as_str (member "epoch" first));
      ignore Test_obs.(as_str (member "epoch" second));
      ignore Test_obs.(as_num (member "index" first));
      Alcotest.(check bool) "first vc non-empty" true
        (Test_obs.(as_arr (member "vc" first)) <> []);
      (* the proof component is spelled out *)
      let un = Test_obs.member "unordered" witness in
      if Test_obs.(as_num (member "second_saw" un))
         >= Test_obs.(as_num (member "first_clock" un))
      then Alcotest.fail "unordered component must have c' < c";
      (* provenance sections *)
      Alcotest.(check bool) "sync_path non-empty" true
        (Test_obs.(as_arr (member "sync_path" race)) <> []);
      Alcotest.(check bool) "slice non-empty" true
        (Test_obs.(as_arr (member "slice" race)) <> []);
      Alcotest.(check bool) "history non-empty" true
        (Test_obs.(as_arr (member "history" race)) <> []))
    races

let test_explain_text () =
  let _, _, report = run_with_report "raytracer" in
  let text = Report.explain report in
  List.iter
    (fun needle ->
      if not (Astring.String.is_infix ~affix:needle text) then
        Alcotest.failf "--explain text misses %S" needle)
    (* both epochs, a vector clock, the proof, a sync event, history *)
    [ "1@1"; "1@2"; "⟨"; "unordered"; "fork"; "flight recorder" ]

let test_traceevent_json () =
  let tr = trace_of "hedc" in
  let obs = Obs.create () in
  let config =
    Config.with_obs obs
      { Config.default with Config.obs }
  in
  (* the static plan keeps the historical per-shard span names this
     test pins down (the stealing plan's item spans are covered in
     test_obs.ml) *)
  let _ =
    Driver.run_parallel ~config ~jobs:3 ~plan:Shard.Static
      (module Fasttrack) tr
  in
  let j = Test_obs.parse_json (Obs_traceevent.to_string obs) in
  let other = Test_obs.member "otherData" j in
  Alcotest.(check string) "schema" "ftrace.trace/1"
    Test_obs.(as_str (member "schema" other));
  let events = Test_obs.(as_arr (member "traceEvents" j)) in
  let names =
    List.filter_map
      (fun e ->
        match Test_obs.member "name" e with
        | Obs_json_read.Str s -> Some s
        | _ -> None)
      events
  in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then
        Alcotest.failf "trace document misses a %S event" expected)
    [ "shard-0"; "shard-1"; "shard-2"; "merge"; "race"; "thread_name" ];
  (* race markers are global instants *)
  List.iter
    (fun e ->
      match Test_obs.member "name" e with
      | Obs_json_read.Str "race" ->
        Alcotest.(check string) "race is an instant" "i"
          Test_obs.(as_str (member "ph" e))
      | _ -> ())
    events;
  (* a disabled handle still yields a valid (empty) document *)
  let empty = Test_obs.parse_json (Obs_traceevent.to_string Obs.disabled) in
  Alcotest.(check int) "disabled document has no spans" 0
    (List.length
       (List.filter
          (fun e ->
            match Test_obs.member "ph" e with
            | Obs_json_read.Str "X" | Obs_json_read.Str "i" -> true
            | _ -> false)
          Test_obs.(as_arr (member "traceEvents" empty))))

let test_write_files () =
  let _, _, report = run_with_report "raytracer" in
  let path = Filename.temp_file "ftrace_report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Report.write_file ~path report;
      let ic = open_in path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let j = Test_obs.parse_json (String.trim s) in
      Alcotest.(check string) "round-trips through a file"
        "ftrace.report/1"
        Test_obs.(as_str (member "schema" j)))

(* ------------------------------------------------------------------ *)
(* Driver timing fields: with the deprecated [elapsed] alias removed,
   cpu and wall are the only clocks, each with its documented unit.   *)

let test_elapsed_alias () =
  let tr = trace_of "raytracer" in
  let seq = Driver.run (module Fasttrack) tr in
  if seq.Driver.cpu < 0. then Alcotest.fail "sequential: negative cpu";
  if seq.Driver.wall < 0. then Alcotest.fail "sequential: negative wall";
  let par = Driver.run_parallel ~jobs:2 (module Fasttrack) tr in
  if par.Driver.wall < 0. then Alcotest.fail "parallel: negative wall";
  (* a 2-domain region's process-CPU clock can only meet or exceed the
     sequential detector's work, never go negative *)
  if par.Driver.cpu < 0. then Alcotest.fail "parallel: negative cpu"

let suite =
  ( "report",
    [ Alcotest.test_case "recorder: disabled is inert" `Quick
        test_recorder_disabled;
      Alcotest.test_case "recorder: ring wraparound" `Quick
        test_recorder_wraparound;
      Alcotest.test_case "recorder: held locks" `Quick test_recorder_locks;
      Alcotest.test_case "recorder: shard views merge" `Quick
        test_recorder_merge;
      Alcotest.test_case "recorder: warnings invariant" `Quick
        test_recorder_invariance;
      Alcotest.test_case "witness: proves the race" `Quick
        test_witness_correctness;
      Alcotest.test_case "witness: sync path between accesses" `Quick
        test_sync_path_between;
      Alcotest.test_case "witness: slice replays the race" `Quick
        test_slice_replays;
      Alcotest.test_case "witness: parallel merge" `Quick
        test_witnesses_parallel;
      Alcotest.test_case "report: ftrace.report/1 JSON" `Quick
        test_report_json;
      Alcotest.test_case "report: --explain text" `Quick test_explain_text;
      Alcotest.test_case "trace-event: ftrace.trace/1 JSON" `Quick
        test_traceevent_json;
      Alcotest.test_case "report: file round-trip" `Quick test_write_files;
      Alcotest.test_case "driver: timing field units" `Quick
        test_elapsed_alias ] )
