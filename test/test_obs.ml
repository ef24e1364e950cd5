(* The observability layer's contract (ISSUE 2):

   1. the metrics registry accumulates and merges exactly;
   2. spans and GC samples land on one timeline and export as valid
      JSON under the ftrace.obs/1 schema (parsed here with a minimal
      hand-rolled reader — no JSON library in the image);
   3. observability NEVER changes analysis results: warnings from an
      instrumented run are identical to an uninstrumented run's, both
      sequentially and sharded. *)

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader, just enough to assert the export schema.    *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else fail "eof" in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %c" c);
    advance ()
  in
  let lit word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          (* \uXXXX: decode as a raw byte for ASCII range, enough for
             our own escaper's output *)
          advance ();
          advance ();
          advance ();
          let hex = String.sub s (!pos - 3) 4 in
          Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xff))
        | c -> Buffer.add_char b c);
        advance ();
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if start = !pos then fail "number";
    float_of_string (String.sub s start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            fields ((k, v) :: acc)
          | '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "object"
        in
        Obj (fields [])
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            items (v :: acc)
          | ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "array"
        in
        Arr (items [])
      end
    | '"' -> Str (string_body ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ -> Num (number ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | Obj fields -> (
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> Alcotest.failf "missing JSON field %S" name)
  | _ -> Alcotest.failf "not an object (looking up %S)" name

let as_num = function
  | Num f -> f
  | _ -> Alcotest.fail "expected number"

let as_str = function
  | Str s -> s
  | _ -> Alcotest.fail "expected string"

let as_arr = function
  | Arr a -> a
  | _ -> Alcotest.fail "expected array"

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)

let test_registry () =
  let r = Obs_metrics.create () in
  let c = Obs_metrics.counter r "events" in
  Obs_metrics.incr c;
  Obs_metrics.add c 9;
  Alcotest.(check int) "counter" 10 (Obs_metrics.counter_value c);
  Alcotest.(check bool) "counter handle is stable" true
    (c == Obs_metrics.counter r "events");
  let g = Obs_metrics.gauge r "imbalance" in
  Obs_metrics.set g 1.5;
  Obs_metrics.set g 2.5;
  Alcotest.(check (float 1e-9)) "gauge last-wins" 2.5
    (Obs_metrics.gauge_value g);
  let h = Obs_metrics.histogram r "lat" in
  List.iter (Obs_metrics.observe h) [ 0.5; 0.75; 3.0; 0.0; -1.0 ];
  let snap = Obs_metrics.snapshot r in
  Alcotest.(check (list (pair string int))) "counters" [ ("events", 10) ]
    snap.Obs_metrics.counters;
  let hs = List.assoc "lat" snap.Obs_metrics.histograms in
  Alcotest.(check int) "histogram count" 5 hs.Obs_metrics.count;
  Alcotest.(check (float 1e-9)) "histogram max" 3.0
    hs.Obs_metrics.max_sample;
  (* 0.5 and 0.75 share the [0.25,1) exponents? frexp 0.5 = (0.5, 0)
     → bucket e=0; 0.75 = (0.75, 0) → e=0; 3.0 = (0.75, 2) → e=2;
     non-positive values clamp to the bottom bucket. *)
  let bucket e =
    match List.assoc_opt e hs.Obs_metrics.buckets with
    | Some k -> k
    | None -> 0
  in
  Alcotest.(check int) "bucket e=0" 2 (bucket 0);
  Alcotest.(check int) "bucket e=2" 1 (bucket 2);
  Alcotest.(check int) "clamped bucket" 2 (bucket (-32))

let test_registry_merge () =
  let a = Obs_metrics.create () in
  let b = Obs_metrics.create () in
  Obs_metrics.add (Obs_metrics.counter a "n") 3;
  Obs_metrics.add (Obs_metrics.counter b "n") 4;
  Obs_metrics.add (Obs_metrics.counter b "only_b") 1;
  Obs_metrics.observe (Obs_metrics.histogram a "h") 1.0;
  Obs_metrics.observe (Obs_metrics.histogram b "h") 2.0;
  Obs_metrics.set (Obs_metrics.gauge b "g") 7.0;
  Obs_metrics.merge_into ~into:a b;
  let snap = Obs_metrics.snapshot a in
  Alcotest.(check int) "counters add" 7
    (List.assoc "n" snap.Obs_metrics.counters);
  Alcotest.(check int) "source-only counter adopted" 1
    (List.assoc "only_b" snap.Obs_metrics.counters);
  Alcotest.(check (float 1e-9)) "touched gauge propagates" 7.0
    (List.assoc "g" snap.Obs_metrics.gauges);
  let hs = List.assoc "h" snap.Obs_metrics.histograms in
  Alcotest.(check int) "histogram counts add" 2 hs.Obs_metrics.count;
  Alcotest.(check (float 1e-9)) "histogram sums add" 3.0
    hs.Obs_metrics.sum

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

let metrics_doc ?plan () =
  let w = Option.get (Workloads.find "raytracer") in
  let tr = Workload.trace ~seed:11 ~scale:1 w in
  let obs = Obs.create ~gc_every:1024 ~heap_walk:true () in
  let config = Config.with_obs obs Config.default in
  let result =
    Driver.run_parallel ~config ~jobs ?plan (module Fasttrack) tr
  in
  (Driver.export_metrics ~source:"raytracer" ~obs result, result)

let test_metrics_schema () =
  (* force the legacy static plan: this test pins the per-shard span
     and table schema; the stealing-plan document has its own test *)
  let doc, result = metrics_doc ~plan:Shard.Static () in
  let j = parse_json doc in
  Alcotest.(check string) "schema version" "ftrace.obs/1"
    (as_str (member "schema" j));
  (* host block *)
  let host = member "host" j in
  Alcotest.(check bool) "host.cores > 0" true
    (as_num (member "cores" host) > 0.);
  (* registry snapshot *)
  let counters = member "counters" (member "metrics" j) in
  Alcotest.(check (float 1e-9)) "driver.runs counted" 1.
    (as_num (member "driver.runs" counters));
  if as_num (member "driver.events" counters) <= 0. then
    Alcotest.fail "driver.events not counted";
  ignore (member "gauges" (member "metrics" j));
  ignore (member "histograms" (member "metrics" j));
  (* span timeline: plan, region, one span per shard, merge *)
  let spans = as_arr (member "spans" j) in
  let span_names =
    List.map (fun s -> as_str (member "name" s)) spans
  in
  List.iter
    (fun expected ->
      if not (List.mem expected span_names) then
        Alcotest.failf "missing span %S (have: %s)" expected
          (String.concat ", " span_names))
    ([ "plan"; "parallel.region"; "merge" ]
    @ List.init jobs (Printf.sprintf "shard-%d"));
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
    List.filter (fun s -> member "full" s = Bool true) gc
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
  let reads, writes, _ = Trace.counts (Workload.trace ~seed:11 ~scale:1
    (Option.get (Workloads.find "raytracer"))) in
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
  (* ftrace.obs/1 carries every Stats scalar, including the sampling
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
  let doc, result = metrics_doc ~plan:Shard.Stealing () in
  let j = parse_json doc in
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
  let reads, writes, _ =
    Trace.counts
      (Workload.trace ~seed:11 ~scale:1
         (Option.get (Workloads.find "raytracer")))
  in
  Alcotest.(check int) "worker accesses partition the trace"
    (reads + writes) accesses_sum;
  (* the timeline counters/gauges ride along *)
  let counters = member "counters" (member "metrics" j) in
  if as_num (member "timeline.checkpoints" counters) <= 0. then
    Alcotest.fail "timeline.checkpoints counter missing";
  let gauges = member "gauges" (member "metrics" j) in
  if as_num (member "timeline.words" gauges) <= 0. then
    Alcotest.fail "timeline.words gauge missing";
  Alcotest.(check (float 1e-4)) "imbalance exported"
    result.Driver.imbalance
    (as_num (member "imbalance" run));
  (* the Amdahl accounting: prefix wall/fraction in the run section
     and as gauges, consistent with the result record *)
  Alcotest.(check (float 1e-4)) "prefix_wall_s exported"
    result.Driver.prefix_wall
    (as_num (member "prefix_wall_s" run));
  let frac = as_num (member "prefix_frac" run) in
  if frac < 0. || frac > 1. then
    Alcotest.failf "prefix_frac out of range: %f" frac;
  if result.Driver.prefix_wall <= 0. then
    Alcotest.fail "stealing run must measure a positive prefix wall";
  if as_num (member "prefix.wall_s" gauges) <= 0. then
    Alcotest.fail "prefix.wall_s gauge missing";
  ignore (member "prefix.frac" gauges)

let test_disabled_document () =
  (* The disabled handle still exports a well-formed document with
     empty sections — downstream tooling never branches on presence. *)
  let j = parse_json (Obs_export.to_string Obs.disabled) in
  Alcotest.(check bool) "enabled=false" true
    (member "enabled" j = Bool false);
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
    [ Alcotest.test_case "metrics registry snapshot" `Quick test_registry;
      Alcotest.test_case "metrics registry merge" `Quick
        test_registry_merge;
      Alcotest.test_case "span sink" `Quick test_spans;
      Alcotest.test_case "--metrics document schema (ftrace.obs/1)"
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
