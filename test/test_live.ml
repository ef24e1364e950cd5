(* The live telemetry bus's contract (ISSUE 7):

   1. the bus NEVER changes analysis results: warnings and witnesses
      are identical with --live on vs off, sequentially and under both
      parallel plans (the bus observes, it does not steer);
   2. the stream is a valid ftrace.live/1 document: header first,
      monotone cum_events, loss-free delta encoding (summing deltas
      reproduces the cumulative counters), and the final record's
      totals equal the run's Stats exactly — i.e. the --metrics
      export;
   3. snapshot arithmetic is exact ([sub (add a b) a = b]) and the
      derived figures (progress, fast-path share, imbalance) behave
      at the edges;
   4. Obs_cores is the single sizing authority;
   5. ftrace watch's state machine reproduces the stream's verdict
      from the NDJSON alone. *)

module J = Obs_json_read

let fasttrack = (module Fasttrack : Detector.S)

let trace_of name =
  match Workloads.find name with
  | Some w -> Workload.trace ~seed:11 ~scale:1 w
  | None -> Alcotest.failf "unknown workload %s" name

(* Run [d] on [tr] with the live bus writing to a temp file (on top of
   [config]'s other hooks); return the result and the stream's lines.
   The header's total is what the run's plan counts, as in the CLI. *)
let run_live ?jobs ?plan ?(config = Config.default) ?period ?tick_events d
    tr =
  let path = Filename.temp_file "ftlive" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = open_out path in
      let parallel =
        Option.map (fun jobs -> (Driver.parallel_plan ~config ?plan d, jobs))
          jobs
      in
      let live =
        Obs_live.create ?period ?tick_events
          ~total:(Driver.stream_events ?parallel tr)
          ~source:"test" ~tool:"FastTrack" ~sink ~owns_sink:true ()
      in
      let config = Config.with_live live config in
      let r =
        match jobs with
        | None -> Driver.run ~config d tr
        | Some jobs -> Driver.run_parallel ~config ~jobs ?plan d tr
      in
      Obs_live.close live;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      (r, List.rev !lines))

let parse_stream lines =
  let docs = List.map J.parse lines in
  match docs with
  | header :: records -> (header, records)
  | [] -> Alcotest.fail "empty live stream"

let counts_of_delta j =
  match J.member "d" j with
  | None -> Obs_snapshot.zero
  | Some d ->
    { Obs_snapshot.events = J.int d "events";
      reads = J.int d "reads";
      writes = J.int d "writes";
      syncs = J.int d "syncs";
      eliminated = J.int d "eliminated";
      epoch_ops = J.int d "epoch_ops";
      vc_ops = J.int d "vc_ops";
      vc_ops_skipped = J.int d "vc_ops_skipped";
      state_words = J.int d "state_words";
      warnings = J.int d "warnings" }

(* ------------------------------------------------------------------ *)
(* 1. invariance: live on vs off                                      *)

let check_same_verdict (off : Driver.result) (on : Driver.result) =
  Alcotest.(check int)
    "same warning count"
    (List.length off.Driver.warnings)
    (List.length on.Driver.warnings);
  Alcotest.(check bool) "identical warnings" true
    (off.Driver.warnings = on.Driver.warnings);
  Alcotest.(check bool) "identical witnesses" true
    (off.Driver.witnesses = on.Driver.witnesses)

let test_invariance_seq () =
  List.iter
    (fun name ->
      let tr = trace_of name in
      let off = Driver.run fasttrack tr in
      let on, _ = run_live fasttrack tr in
      check_same_verdict off on)
    [ "raytracer"; "moldyn"; "hedc" ]

let eliminator name =
  match Workloads.find name with
  | Some w ->
    Static.eliminator ~granularity:Var.Fine
      (Static.analyze (w.Workload.program ~scale:1))
  | None -> Alcotest.failf "unknown workload %s" name

let test_invariance_parallel () =
  let tr = trace_of "raytracer" in
  List.iter
    (fun plan ->
      let off = Driver.run_parallel ~jobs:3 ~plan fasttrack tr in
      let on, _ = run_live ~jobs:3 ~plan fasttrack tr in
      check_same_verdict off on)
    [ Shard.Static; Shard.Stealing ];
  (* Every hook at once — obs, live, prof and static elimination, plus
     the flight recorder where the plan runs it — meets in the one
     analysis unit; none may steer the verdict, and the counters must
     equal the elimination-only run's. *)
  let elim = Config.with_static_elim (eliminator "raytracer") Config.default in
  List.iter
    (fun (label, jobs, plan) ->
      let run config =
        match jobs with
        | None -> Driver.run ~config fasttrack tr
        | Some jobs -> Driver.run_parallel ~config ~jobs ~plan fasttrack tr
      in
      let plain = run Config.default and elim_only = run elim in
      let recorder =
        if plan = Shard.Stealing then Obs_recorder.disabled
        else Obs_recorder.create ()
      in
      let config =
        Config.with_recorder recorder
          (Config.with_prof (Obs_prof.create ())
             (Config.with_obs (Obs.create ()) elim))
      in
      let on, _ = run_live ?jobs ~plan ~config fasttrack tr in
      check_same_verdict plain on;
      Alcotest.(check (list (pair string int)))
        (label ^ ": all hooks: stats = elimination-only stats")
        (Stats.fields_alist elim_only.Driver.stats)
        (Stats.fields_alist on.Driver.stats);
      Alcotest.(check bool)
        (label ^ ": accesses were eliminated")
        true
        (on.Driver.stats.Stats.eliminated > 0))
    [ ("seq", None, Shard.Static);
      ("static -j 2", Some 2, Shard.Static);
      ("stealing -j 2", Some 2, Shard.Stealing) ]

(* ------------------------------------------------------------------ *)
(* 2. stream schema, monotonicity, delta/final consistency            *)

(* [tick_events] given: the long input.  The run far outlasts the
   collector's poll, every poll may emit ([period] 0), and the input
   is one unit's work under every plan, so only the publishes between
   that unit's windows can show it part-way: some non-final record
   must have [0 < cum_events < total] while a worker's count sits
   strictly between 0 and its peak (unit completions alone jump
   straight from 0 to the peak). *)
let check_stream ?jobs ?plan ?tick_events tr =
  let period = Option.map (fun _ -> 0.) tick_events in
  let r, lines = run_live ?jobs ?plan ?period ?tick_events fasttrack tr in
  let header, records = parse_stream lines in
  Alcotest.(check string)
    "schema" "ftrace.live/1" (J.str header "schema");
  (* only the static plan's broadcast shards count a non-access event
     more than once *)
  if plan <> Some Shard.Static then
    Alcotest.(check int)
      "header total" (Trace.length tr) (J.int header "total_events");
  let total = J.int header "total_events" in
  Alcotest.(check bool) "has records" true (records <> []);
  (* monotone cum_events; deltas sum to the final cumulative *)
  let last_cum = ref (-1) in
  let summed = ref Obs_snapshot.zero in
  List.iter
    (fun rec_j ->
      let cum = J.int rec_j "cum_events" in
      if cum < !last_cum then
        Alcotest.failf "cum_events not monotone: %d after %d" cum !last_cum;
      last_cum := cum;
      summed := Obs_snapshot.add !summed (counts_of_delta rec_j))
    records;
  let final = List.nth records (List.length records - 1) in
  Alcotest.(check bool) "final flag" true (J.bool final "final");
  Alcotest.(check string) "final phase" "done" (J.str final "phase");
  Alcotest.(check int)
    "final cum_events = header total_events" total
    (J.int final "cum_events");
  if tick_events <> None then begin
    let mid = List.filter (fun j -> J.member "final" j = None) records in
    let workers j =
      match J.member "workers" j with
      | Some (J.Arr ws) ->
        List.map (fun w -> (J.int w "id", J.int w "events")) ws
      | _ -> []
    in
    let peak = Hashtbl.create 8 in
    List.iter
      (fun j ->
        List.iter
          (fun (id, n) ->
            let p = Option.value ~default:0 (Hashtbl.find_opt peak id) in
            Hashtbl.replace peak id (max p n))
          (workers j))
      mid;
    let in_flight j =
      let cum = J.int j "cum_events" in
      0 < cum && cum < total
      && List.exists (fun (id, n) -> 0 < n && n < Hashtbl.find peak id)
           (workers j)
    in
    if not (List.exists in_flight mid) then
      Alcotest.failf "no mid-run record among %d records (total %d)"
        (List.length mid) total
  end;
  (* final totals == the run's Stats (the --metrics export's fields) *)
  let fields = Stats.fields_alist r.Driver.stats in
  let field name = List.assoc name fields in
  let cum =
    match J.member "cum" final with
    | Some c -> c
    | None -> Alcotest.fail "final record has no cum object"
  in
  List.iter
    (fun (k, v) ->
      Alcotest.(check int) (Printf.sprintf "final cum.%s" k) v (J.int cum k))
    fields;
  Alcotest.(check int)
    "final cum_events = events + eliminated"
    (field "events" + field "eliminated")
    (J.int final "cum_events");
  Alcotest.(check int)
    "final warnings" (List.length r.Driver.warnings)
    (J.int final "warnings");
  (* loss-free deltas: the summed deltas reach the final cumulative
     event count (the final record carries no delta of its own) *)
  Alcotest.(check int)
    "summed deltas = cum_events"
    (J.int final "cum_events")
    (!summed.Obs_snapshot.events + !summed.Obs_snapshot.eliminated)

(* The long input: ~720k events of three threads taking turns on one
   lock to write and read one variable — one stealing item, one owning
   shard, one sequential unit. *)
let long_trace () =
  let x = Var.make ~obj:0 ~field:0 and m = 0 in
  let turn k =
    let t = 1 + (k / 16 mod 3) in
    match k mod 16 with
    | 0 -> Event.Acquire { t; m }
    | 15 -> Event.Release { t; m }
    | i when i mod 2 = 1 -> Event.Write { t; x }
    | _ -> Event.Read { t; x }
  in
  Trace.of_array
    (Array.concat
       [ Array.init 3 (fun i -> Event.Fork { t = 0; u = i + 1 });
         Array.init 720_000 turn;
         Array.init 3 (fun i -> Event.Join { t = 0; u = i + 1 }) ])

let test_stream_seq () =
  check_stream (trace_of "raytracer");
  check_stream ~tick_events:512 (long_trace ())

let test_stream_static () =
  check_stream ~jobs:3 ~plan:Shard.Static (trace_of "hedc");
  check_stream ~jobs:3 ~plan:Shard.Static ~tick_events:512
    (long_trace ())

let test_stream_stealing () =
  check_stream ~jobs:3 ~plan:Shard.Stealing (trace_of "raytracer");
  check_stream ~jobs:3 ~plan:Shard.Stealing ~tick_events:512
    (long_trace ())

(* ------------------------------------------------------------------ *)
(* 3. snapshot arithmetic and derived figures                         *)

let some_counts =
  { Obs_snapshot.events = 100; reads = 60; writes = 30; syncs = 10;
    eliminated = 5; epoch_ops = 80; vc_ops = 20; vc_ops_skipped = 4;
    state_words = 512;
    warnings = 1 }

let other_counts =
  { Obs_snapshot.events = 7; reads = 3; writes = 2; syncs = 2;
    eliminated = 0; epoch_ops = 6; vc_ops = 1; vc_ops_skipped = 1;
    state_words = 64;
    warnings = 0 }

let test_counts_arith () =
  let open Obs_snapshot in
  Alcotest.(check bool) "sub (add a b) a = b" true
    (sub (add some_counts other_counts) some_counts = other_counts);
  Alcotest.(check bool) "add zero = id" true
    (add some_counts zero = some_counts);
  Alcotest.(check bool) "sub self = zero" true
    (sub some_counts some_counts = zero)

let test_derived_figures () =
  let open Obs_snapshot in
  let snap phase counts workers =
    { empty with at = 2.0; phase; counts; workers }
  in
  let s = snap "analyze" some_counts [||] in
  (* events_seen counts eliminated accesses as progress *)
  Alcotest.(check int) "events_seen" 105 (events_seen s);
  Alcotest.(check (float 1e-9)) "progress" 0.5 (progress ~total:210 s);
  (* overshoot clamps (static-plan broadcast replays) *)
  Alcotest.(check (float 1e-9)) "progress clamps" 1.0 (progress ~total:50 s);
  Alcotest.(check (float 1e-9)) "unknown total reads as no progress" 0.
    (progress ~total:0 s);
  Alcotest.(check (float 1e-9)) "fast path" 0.8 (fast_path_frac s);
  Alcotest.(check (float 1e-9)) "fast path of idle" 0.
    (fast_path_frac empty);
  (* imbalance: max over mean of per-worker events *)
  let balanced =
    snap "analyze" some_counts
      [| { w_id = 0; w_events = 50 }; { w_id = 1; w_events = 50 } |]
  in
  let skewed =
    snap "analyze" some_counts
      [| { w_id = 0; w_events = 90 }; { w_id = 1; w_events = 10 } |]
  in
  Alcotest.(check (float 1e-9)) "balanced" 1.0 (imbalance balanced);
  Alcotest.(check (float 1e-9)) "skewed" 1.8 (imbalance skewed);
  Alcotest.(check (float 1e-9)) "no workers" 1.0 (imbalance s);
  (* rate between snapshots *)
  let earlier = { (snap "analyze" other_counts [||]) with at = 1.0 } in
  Alcotest.(check (float 1e-6)) "rate" 98. (rate ~prev:earlier s);
  Alcotest.(check (float 1e-9)) "rate of zero interval" 0.
    (rate ~prev:s s)

let test_merge_snapshots () =
  let open Obs_snapshot in
  let a =
    { empty with
      counts = some_counts;
      rules = [ ("read same epoch", 4); ("write exclusive", 2) ];
      workers = [| { w_id = 1; w_events = 100 } |];
      heap_words = 1000 }
  in
  let b =
    { empty with
      counts = other_counts;
      rules = [ ("write exclusive", 3) ];
      workers = [| { w_id = 0; w_events = 7 } |];
      heap_words = 2000 }
  in
  let m = merge ~at:3.0 ~phase:"merge" [ a; b ] in
  Alcotest.(check bool) "counts add" true
    (m.counts = add some_counts other_counts);
  Alcotest.(check bool) "rules merge by name, descending" true
    (m.rules = [ ("write exclusive", 5); ("read same epoch", 4) ]);
  Alcotest.(check int) "workers sorted by id" 0 m.workers.(0).w_id;
  Alcotest.(check int) "heap takes max" 2000 m.heap_words;
  Alcotest.(check string) "phase from caller" "merge" m.phase;
  let e = merge ~at:0. ~phase:"start" [] in
  Alcotest.(check bool) "merge of nothing is empty counts" true
    (e.counts = zero)

(* ------------------------------------------------------------------ *)
(* 4. sizing authority                                                *)

let test_cores_authority () =
  let c = Obs_cores.recommended () in
  Alcotest.(check bool) "at least one core" true (c >= 1);
  Alcotest.(check int) "stable across calls" c (Obs_cores.recommended ());
  Alcotest.(check int) "pool sizing uses it" c
    (Domain_pool.recommended_jobs ())

(* ------------------------------------------------------------------ *)
(* 5. ftrace watch state machine                                      *)

let test_watch_replay () =
  let tr = trace_of "raytracer" in
  let r, lines = run_live fasttrack tr in
  let w = Obs_watch.create () in
  List.iter (Obs_watch.feed_line w) lines;
  Alcotest.(check bool) "final" true (Obs_watch.final w);
  Alcotest.(check int) "warnings"
    (List.length r.Driver.warnings)
    (Obs_watch.warnings w);
  Alcotest.(check bool) "seq advanced" true (Obs_watch.seq w > 0);
  (* rendering is total: panel and line both produce output *)
  let panel = Obs_watch.render_panel ~width:72 w in
  Alcotest.(check bool) "panel has lines" true (List.length panel >= 3);
  Alcotest.(check bool) "panel reports done" true
    (List.exists
       (fun l ->
         Astring.String.is_infix ~affix:"done" (String.lowercase_ascii l))
       panel);
  Alcotest.(check bool) "line renders" true
    (String.length (Obs_watch.render_line w) > 0);
  (* torn/blank/garbage lines are skipped, not fatal *)
  Obs_watch.feed_line w "";
  Obs_watch.feed_line w "{\"seq\":";
  Obs_watch.feed_line w "not json at all";
  Alcotest.(check bool) "still final after garbage" true (Obs_watch.final w)

let suite =
  ( "live",
    [ Alcotest.test_case "live on/off: sequential verdicts identical"
        `Quick test_invariance_seq;
      Alcotest.test_case "live on/off: parallel verdicts identical"
        `Quick test_invariance_parallel;
      Alcotest.test_case "stream: sequential schema + totals" `Quick
        test_stream_seq;
      Alcotest.test_case "stream: static plan schema + totals" `Quick
        test_stream_static;
      Alcotest.test_case "stream: stealing plan schema + totals" `Quick
        test_stream_stealing;
      Alcotest.test_case "snapshot: exact counter arithmetic" `Quick
        test_counts_arith;
      Alcotest.test_case "snapshot: derived figures at the edges" `Quick
        test_derived_figures;
      Alcotest.test_case "snapshot: merge semantics" `Quick
        test_merge_snapshots;
      Alcotest.test_case "cores: one sizing authority" `Quick
        test_cores_authority;
      Alcotest.test_case "watch: replays a stream to the verdict" `Quick
        test_watch_replay ] )
