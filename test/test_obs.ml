(* The observability layer's contract:

   1. spans and GC samples land on one timeline and export as valid
      JSON under the ftrace.obs/2 schema (parsed with Obs_json_read,
      the reader `ftrace watch` uses);
   2. every run figure has one copy: the run section, a span attr, or
      the race report's recorder object — never a second registry;
   3. observability NEVER changes analysis results: warnings from an
      instrumented run are identical to an uninstrumented run's, both
      sequentially and sharded. *)

(* ------------------------------------------------------------------ *)
(* Strict accessors over Obs_json_read: a missing field or a value of  *)
(* the wrong type fails the test.                                     *)

module J = Obs_json_read

let parse_json = J.parse

let member name j =
  match j with
  | J.Obj _ -> (
    match J.member name j with
    | Some v -> v
    | None -> Alcotest.failf "missing JSON field %S" name)
  | _ -> Alcotest.failf "not an object (looking up %S)" name

let expect what = function
  | Some v -> v
  | None -> Alcotest.failf "expected %s" what

let as_num j = expect "number" (J.to_num j)
let as_str j = expect "string" (J.to_str j)
let as_arr j = expect "array" (J.to_arr j)

(* Every path (["run.stats.events"], ["spans[].attrs.words"]) at which
   an object in [j] has a field named [key]. *)
let paths key j =
  let rec go prefix acc = function
    | J.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          let here = if prefix = "" then k else prefix ^ "." ^ k in
          go here (if k = key then here :: acc else acc) v)
        acc fields
    | J.Arr items -> List.fold_left (go (prefix ^ "[]")) acc items
    | _ -> acc
  in
  List.rev (go "" [] j)

(* [key] appears in [j] exactly once, at [path]. *)
let check_once j key path =
  Alcotest.(check (list string)) (key ^ " has one copy") [ path ] (paths key j)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)

let test_spans () =
  let sink = Obs_span.create () in
  let v =
    Obs_span.with_ sink "outer" (fun () ->
        Obs_span.with_ sink "inner"
          ~attrs:[ ("k", Obs_span.Int 3) ]
          (fun () -> 41 + 1))
  in
  Alcotest.(check int) "with_ returns" 42 v;
  (try
     Obs_span.with_ sink "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  let spans = Obs_span.spans sink in
  (* start times can tie at clock resolution, so assert membership and
     the ordering property rather than an exact sequence *)
  Alcotest.(check (list string)) "span names"
    [ "failing"; "inner"; "outer" ]
    (List.sort String.compare
       (List.map (fun s -> s.Obs_span.name) spans));
  let start_of name =
    (List.find (fun s -> s.Obs_span.name = name) spans).Obs_span.start
  in
  if start_of "outer" > start_of "inner" then
    Alcotest.fail "outer must not start after its nested inner span";
  if start_of "inner" > start_of "failing" then
    Alcotest.fail "spans out of order";
  List.iter
    (fun (s : Obs_span.span) ->
      if s.Obs_span.duration < 0. then Alcotest.fail "negative duration";
      if s.Obs_span.start < 0. then Alcotest.fail "negative start")
    spans;
  let inner = List.find (fun s -> s.Obs_span.name = "inner") spans in
  Alcotest.(check bool) "attrs survive" true
    (List.mem_assoc "k" inner.Obs_span.attrs)

(* ------------------------------------------------------------------ *)
(* The --metrics document schema (acceptance criterion)               *)

let jobs = 4

let raytracer () =
  Workload.trace ~seed:11 ~scale:1 (Option.get (Workloads.find "raytracer"))

let metrics_doc ?(config = Config.default) ?plan tr =
  let obs = Obs.create ~gc_every:1024 ~heap_walk:true () in
  let config = Config.with_obs obs config in
  let result =
    Driver.run_parallel ~config ~jobs ?plan (module Fasttrack) tr
  in
  (parse_json (Driver.export_metrics ~source:"raytracer" ~obs result), result)

(* The run's own figures: each is in the document once, at its [run]
   path, and no metrics section repeats them. *)
let check_run_figures j (result : Driver.result) =
  Alcotest.(check (list string)) "no metrics section" [] (paths "metrics" j);
  let run = member "run" j and stats = member "stats" (member "run" j) in
  List.iter
    (fun (key, v) ->
      check_once j key ("run.stats." ^ key);
      Alcotest.(check (float 0.)) ("run.stats." ^ key) (float_of_int v)
        (as_num (member key stats)))
    [ ("events", result.Driver.stats.Stats.events);
      ("eliminated", result.Driver.stats.Stats.eliminated);
      ("peak_words", result.Driver.stats.Stats.peak_words);
      ("state_words", result.Driver.stats.Stats.state_words) ];
  List.iter
    (fun key -> check_once j key ("run." ^ key))
    [ "imbalance"; "slots"; "prefix_wall_s"; "prefix_frac" ];
  (* driver.run_wall_s: one run-level wall, next to the per-shard
     walls, which are other figures *)
  Alcotest.(check (list string)) "run.wall_s has one copy"
    ("run.wall_s" :: List.init jobs (fun _ -> "run.shards[].wall_s"))
    (paths "wall_s" j);
  Alcotest.(check (float 1e-4)) "run.wall_s" result.Driver.wall
    (as_num (member "wall_s" run));
  Alcotest.(check (float 0.)) "run.slots" (float_of_int result.Driver.slots)
    (as_num (member "slots" run))

let test_metrics_schema () =
  (* force the static plan: this test pins the per-shard span and
     table schema; the stealing-plan document has its own test.  The
     flight recorder rides along so its footprint can be found in the
     race report built from the same run. *)
  let tr = raytracer () in
  let recorder = Obs_recorder.create () in
  let config = Config.with_recorder recorder Config.default in
  let j, result = metrics_doc ~config ~plan:Shard.Static tr in
  Alcotest.(check string) "schema version" "ftrace.obs/2"
    (as_str (member "schema" j));
  (* host block *)
  let host = member "host" j in
  Alcotest.(check bool) "host.cores > 0" true
    (as_num (member "cores" host) > 0.);
  check_run_figures j result;
  (* the static plan's two derived figures: the broadcast count is
     every shard's non-access events, and the materialized plan's
     imbalance is the run's *)
  let stats = member "stats" (member "run" j) in
  let plan = Shard.plan ~jobs tr in
  let stat k = int_of_float (as_num (member k stats)) in
  Alcotest.(check int) "broadcast = (events - reads - writes) / jobs"
    plan.Shard.broadcast
    ((stat "events" - stat "reads" - stat "writes") / jobs);
  Alcotest.(check (float 1e-4)) "plan imbalance = run.imbalance"
    (Shard.imbalance plan)
    (as_num (member "imbalance" (member "run" j)));
  (* the recorder footprint: once, in ftrace.report/1's recorder
     object *)
  let report =
    parse_json
      (Report.to_string
         (Report.build ~config ~source:"raytracer" ~trace:tr result))
  in
  List.iter
    (fun (key, v) ->
      check_once report key ("recorder." ^ key);
      if paths key j <> [] then Alcotest.failf "%s in the obs document" key;
      Alcotest.(check (float 0.)) ("recorder." ^ key) (float_of_int v)
        (as_num (member key (member "recorder" report))))
    [ ("vars_tracked", Obs_recorder.vars_tracked recorder);
      ("recorded", Obs_recorder.recorded recorder);
      ("dropped", Obs_recorder.dropped recorder);
      ("approx_words", Obs_recorder.approx_words recorder) ];
  if Obs_recorder.recorded recorder <= 0 then
    Alcotest.fail "the recorder saw no access";
  (* span timeline: region, one span per shard, merge *)
  let spans = as_arr (member "spans" j) in
  let span_names =
    List.map (fun s -> as_str (member "name" s)) spans
  in
  List.iter
    (fun expected ->
      if not (List.mem expected span_names) then
        Alcotest.failf "missing span %S (have: %s)" expected
          (String.concat ", " span_names))
    ([ "parallel.region"; "merge" ]
    @ List.init jobs (Printf.sprintf "shard-%d"));
  if List.mem "plan" span_names then
    Alcotest.fail "the static run materializes no second plan";
  List.iter
    (fun s ->
      if as_num (member "duration_s" s) < 0. then
        Alcotest.fail "negative span duration";
      ignore (member "start_s" s);
      ignore (member "attrs" s))
    spans;
  (* GC samples *)
  let gc = as_arr (member "gc" j) in
  if List.length gc < 2 then Alcotest.fail "expected >= 2 GC samples";
  List.iter
    (fun s ->
      if as_num (member "heap_words" s) <= 0. then
        Alcotest.fail "gc sample without heap words")
    gc;
  (* with the heap walk on, the full end-of-run sample carries live
     words: the independent cross-check for Stats.peak_words
     (Table 3) *)
  let full =
    List.filter (fun s -> member "full" s = J.Bool true) gc
  in
  (match full with
  | [] -> Alcotest.fail "no full GC sample"
  | s :: _ ->
    let live = as_num (member "live_words" s) in
    let peak = float_of_int result.Driver.stats.Stats.peak_words in
    if live < peak then
      Alcotest.failf
        "GC live words (%.0f) below hand-counted shadow peak (%.0f)" live
        peak);
  (* run section: per-shard table + imbalance *)
  let run = member "run" j in
  Alcotest.(check string) "run.source" "raytracer"
    (as_str (member "source" run));
  Alcotest.(check (float 1e-9)) "run.jobs" (float_of_int jobs)
    (as_num (member "jobs" run));
  let shards = as_arr (member "shards" run) in
  Alcotest.(check int) "one shard entry per job" jobs (List.length shards);
  let accesses_sum =
    List.fold_left
      (fun acc s -> acc + int_of_float (as_num (member "accesses" s)))
      0 shards
  in
  let reads, writes, _ = Trace.counts tr in
  Alcotest.(check int) "shard accesses partition the trace"
    (reads + writes) accesses_sum;
  List.iter
    (fun s ->
      if as_num (member "wall_s" s) < 0. then
        Alcotest.fail "negative shard wall time")
    shards;
  let imbalance = as_num (member "imbalance" run) in
  if imbalance < 1.0 then
    Alcotest.failf "imbalance %.3f < 1.0" imbalance;
  (* the exporter renders floats with %.6g *)
  Alcotest.(check (float 1e-4)) "result.imbalance matches export"
    result.Driver.imbalance imbalance;
  (* ftrace.obs/2 carries every Stats scalar, including the sampling
     tier's counters — zero for a non-sampling detector like this
     FastTrack run *)
  let stats = member "stats" run in
  Alcotest.(check (float 1e-9)) "run.stats.sampled is 0 for FastTrack"
    0. (as_num (member "sampled" stats));
  Alcotest.(check (float 1e-9)) "run.stats.skipped is 0 for FastTrack"
    0. (as_num (member "skipped" stats));
  ignore (member "rules" run)

(* The work-stealing plan's document: prefix spans (the umbrella plus
   its route/timeline phases), the queue region, merge; plan/slots and
   prefix accounting fields in the run section; per-worker shard table
   still partitions the accesses. *)
let test_metrics_schema_stealing () =
  let tr = raytracer () in
  let j, result = metrics_doc ~plan:Shard.Stealing tr in
  check_run_figures j result;
  let spans = as_arr (member "spans" j) in
  let span_names =
    List.map (fun s -> as_str (member "name" s)) spans
  in
  List.iter
    (fun expected ->
      if not (List.mem expected span_names) then
        Alcotest.failf "missing span %S (have: %s)" expected
          (String.concat ", " span_names))
    [ "prefix"; "prefix.route"; "prefix.timeline"; "parallel.region";
      "merge" ];
  if not (List.exists (fun n -> String.length n > 5
                                && String.sub n 0 5 = "item-") span_names)
  then Alcotest.fail "no item-N span recorded";
  let run = member "run" j in
  Alcotest.(check string) "run.plan" "stealing"
    (as_str (member "plan" run));
  Alcotest.(check (float 1e-9)) "run.slots"
    (float_of_int (Shard.default_steal_factor * jobs))
    (as_num (member "slots" run));
  let shards = as_arr (member "shards" run) in
  Alcotest.(check int) "one entry per worker" jobs (List.length shards);
  let accesses_sum =
    List.fold_left
      (fun acc s -> acc + int_of_float (as_num (member "accesses" s)))
      0 shards
  in
  let reads, writes, _ = Trace.counts tr in
  Alcotest.(check int) "worker accesses partition the trace"
    (reads + writes) accesses_sum;
  (* the timeline's counts: attrs of the prefix.timeline span, equal
     to a one-shot build's; the segment count is the prefix span's *)
  let span name =
    List.find (fun s -> as_str (member "name" s) = name) spans
  in
  let timeline = member "attrs" (span "prefix.timeline") in
  let ts = Sync_timeline.stats (Sync_timeline.build tr) in
  List.iter
    (fun (key, v) ->
      check_once j key ("spans[].attrs." ^ key);
      Alcotest.(check (float 0.)) ("prefix.timeline." ^ key)
        (float_of_int v) (as_num (member key timeline)))
    [ ("sync_events", ts.Sync_timeline.sync_events);
      ("checkpoints", ts.Sync_timeline.checkpoints);
      ("snapshots", ts.Sync_timeline.snapshots);
      ("snapshot_hits", ts.Sync_timeline.snapshot_hits);
      ("words", ts.Sync_timeline.words) ];
  Alcotest.(check (float 0.)) "timeline sync events = run.stats.syncs"
    (float_of_int result.Driver.stats.Stats.syncs)
    (as_num (member "sync_events" timeline));
  check_once j "segments" "spans[].attrs.segments";
  if as_num (member "segments" (member "attrs" (span "prefix"))) < 1. then
    Alcotest.fail "prefix span without a segment count";
  Alcotest.(check (float 1e-4)) "imbalance exported"
    result.Driver.imbalance
    (as_num (member "imbalance" run));
  (* the Amdahl accounting: prefix wall/fraction in the run section,
     consistent with the result record *)
  Alcotest.(check (float 1e-4)) "prefix_wall_s exported"
    result.Driver.prefix_wall
    (as_num (member "prefix_wall_s" run));
  let frac = as_num (member "prefix_frac" run) in
  if frac < 0. || frac > 1. then
    Alcotest.failf "prefix_frac out of range: %f" frac;
  if result.Driver.prefix_wall <= 0. then
    Alcotest.fail "stealing run must measure a positive prefix wall";
  Alcotest.(check (float 1e-4)) "prefix_frac exported"
    (Driver.prefix_frac result) frac

let test_disabled_document () =
  (* The disabled handle still exports a well-formed document with
     empty sections — downstream tooling never branches on presence. *)
  let j = parse_json (Obs_export.to_string Obs.disabled) in
  Alcotest.(check bool) "enabled=false" true
    (member "enabled" j = J.Bool false);
  Alcotest.(check int) "no spans" 0 (List.length (as_arr (member "spans" j)));
  Alcotest.(check int) "no gc samples" 0
    (List.length (as_arr (member "gc" j)))

(* GC samples are taken between windows of the sequential run's walk:
   one at the start, one per [gc_every] events (with the live bus's
   windows interleaved or not), one at the end.  The end-of-run heap
   walk is opt-in: a default handle's last sample is a quick one. *)
let test_gc_windows () =
  let tr =
    Workload.trace ~seed:11 ~scale:1 (Option.get (Workloads.find "raytracer"))
  in
  let every = 97 in
  let run ?heap_walk ?(live = Obs_live.disabled) () =
    let obs = Obs.create ~gc_every:every ?heap_walk () in
    let config = Config.with_live live (Config.with_obs obs Config.default) in
    let r = Driver.run ~config (module Fasttrack) tr in
    (r, Obs_gc.samples (Option.get (Obs.gc obs)))
  in
  let expected = 2 + (Trace.length tr / every) in
  let _, samples = run () in
  Alcotest.(check int) "start + periodic + final" expected
    (List.length samples);
  let last = List.nth samples (List.length samples - 1) in
  Alcotest.(check bool) "default final sample: no heap walk" false
    last.Obs_gc.full;
  Alcotest.(check int) "no live words without the walk" 0
    last.Obs_gc.live_words;
  if List.exists (fun g -> g.Obs_gc.full) samples then
    Alcotest.fail "a default handle walked the heap";
  let sink = open_out Filename.null in
  let live =
    Obs_live.create ~tick_events:64 ~sink ~owns_sink:true ()
  in
  let _, samples = run ~live () in
  Obs_live.close live;
  Alcotest.(check int) "same count with live windows" expected
    (List.length samples);
  let r, samples = run ~heap_walk:true () in
  let last = List.nth samples (List.length samples - 1) in
  Alcotest.(check bool) "opt-in final sample walks the heap" true
    last.Obs_gc.full;
  if last.Obs_gc.live_words < r.Driver.stats.Stats.peak_words then
    Alcotest.failf "GC live words (%d) below the shadow peak (%d)"
      last.Obs_gc.live_words r.Driver.stats.Stats.peak_words

(* ------------------------------------------------------------------ *)
(* Observability never changes warnings (acceptance criterion)        *)

let warning : Warning.t Alcotest.testable =
  Alcotest.testable Warning.pp (fun (a : Warning.t) b -> a = b)

let test_invariance () =
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      let plain = Driver.run (module Fasttrack) tr in
      let obs_config () = Config.with_obs (Obs.create ~gc_every:512 ()) Config.default in
      let seq_obs = Driver.run ~config:(obs_config ()) (module Fasttrack) tr in
      Alcotest.(check (list warning))
        (name ^ ": sequential warnings unchanged by obs")
        plain.Driver.warnings seq_obs.Driver.warnings;
      List.iter
        (fun jobs ->
          let par_plain =
            Driver.run_parallel ~jobs (module Fasttrack) tr
          in
          let par_obs =
            Driver.run_parallel ~config:(obs_config ()) ~jobs
              (module Fasttrack) tr
          in
          Alcotest.(check (list warning))
            (Printf.sprintf "%s: parallel (%d jobs) warnings unchanged"
               name jobs)
            par_plain.Driver.warnings par_obs.Driver.warnings;
          Alcotest.(check (list warning))
            (Printf.sprintf "%s: obs par (%d jobs) ≡ plain seq" name jobs)
            plain.Driver.warnings par_obs.Driver.warnings)
        [ 2; 5 ])
    [ "raytracer"; "hedc"; "tsp" ]

(* Driver.result unit split: cpu and wall are both populated with
   their own units (no alias — the deprecated [elapsed] field is
   gone; readers name the clock they mean). *)
let test_elapsed_units () =
  let w = Option.get (Workloads.find "raytracer") in
  let tr = Workload.trace ~seed:11 ~scale:1 w in
  let seq = Driver.run (module Fasttrack) tr in
  if seq.Driver.cpu < 0. then Alcotest.fail "negative cpu";
  if seq.Driver.wall < 0. then Alcotest.fail "negative wall";
  Alcotest.(check int) "seq has no shard table" 0
    (Array.length seq.Driver.shards);
  Alcotest.(check (float 1e-9)) "seq imbalance 1.0" 1.0
    seq.Driver.imbalance;
  (* static plan: the shard table and imbalance are exactly the
     materialized plan's (the stealing plan's per-worker figures are
     schedule-dependent and covered by the stealing document test) *)
  let par =
    Driver.run_parallel ~jobs:3 ~plan:Shard.Static (module Fasttrack) tr
  in
  if par.Driver.wall < 0. then Alcotest.fail "negative parallel wall";
  Alcotest.(check int) "par shard table" 3 (Array.length par.Driver.shards);
  let reads, writes, _ = Trace.counts tr in
  let owned =
    Array.fold_left
      (fun acc si -> acc + si.Driver.shard_accesses)
      0 par.Driver.shards
  in
  Alcotest.(check int) "shard_info partitions accesses" (reads + writes)
    owned;
  if par.Driver.imbalance < 1.0 then Alcotest.fail "imbalance < 1";
  (* cross-check against the materialized plan *)
  let plan = Shard.plan ~jobs:3 tr in
  Alcotest.(check (float 1e-6)) "imbalance matches Shard.plan"
    (Shard.imbalance plan) par.Driver.imbalance

let suite =
  ( "obs",
    [ Alcotest.test_case "span sink" `Quick test_spans;
      Alcotest.test_case "--metrics document schema (ftrace.obs/2)"
        `Quick test_metrics_schema;
      Alcotest.test_case "--metrics document under work stealing"
        `Quick test_metrics_schema_stealing;
      Alcotest.test_case "disabled handle exports empty sections" `Quick
        test_disabled_document;
      Alcotest.test_case "GC samples between windows, opt-in heap walk"
        `Quick test_gc_windows;
      Alcotest.test_case "observability never changes warnings" `Quick
        test_invariance;
      Alcotest.test_case "cpu/wall split and shard accounting" `Quick
        test_elapsed_units ] )
