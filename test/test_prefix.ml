(* The parallel prefix's two load-bearing equalities (DESIGN.md
   §"Segmented prefix"):

   1. Stitching: for ANY segmentation, concatenating the per-segment
      routing runs in segment order reproduces the serial
      [Shard.plan_stealing_prepass] exactly — same item index
      sequences, same LPT order, same sync indices, same thread count,
      same elimination count.  Routing is a pure per-event function,
      so this is equality of values, not just of observable behaviour.

   2. Pipelined build: feeding the segments' sync runs in order into
      the incremental [Sync_timeline] builder produces a timeline
      equal to the one-shot [build_indexed]'s — same lookups at every
      prefix index (checked against the live [Vc_state] oracle) and
      the same stats counters, so deltas, keyframes and cursor semantics are
      untouched by the concurrency.

   Plus the degenerate cases that pin the serial fallback: 1 segment,
   jobs = 1, and more segments than events. *)

module VC = Vector_clock

let gen_params : (string * Trace_gen.params) list =
  [ ( "mixed",
      { Trace_gen.threads = 4; vars = 6; locks = 3; volatiles = 2;
        length = 300; profile = Trace_gen.Mixed; barriers = true } );
    ( "synchronized",
      { Trace_gen.threads = 3; vars = 4; locks = 2; volatiles = 1;
        length = 250; profile = Trace_gen.Synchronized; barriers = false } );
    ( "racy",
      { Trace_gen.threads = 5; vars = 8; locks = 1; volatiles = 1;
        length = 350; profile = Trace_gen.Racy; barriers = true } ) ]

let seeds = [ 1; 2; 3; 5; 8; 13; 21; 34 ]

(* -- 1. stitching ≡ serial routing --------------------------------- *)

let check_plan_equal name (pa : Shard.plan) (pb : Shard.plan) =
  Alcotest.(check int) (name ^ ": jobs") pa.Shard.jobs pb.Shard.jobs;
  Alcotest.(check int) (name ^ ": slots") pa.Shard.slots pb.Shard.slots;
  Alcotest.(check int)
    (name ^ ": broadcast") pa.Shard.broadcast pb.Shard.broadcast;
  Alcotest.(check int)
    (name ^ ": shard count")
    (Array.length pa.Shard.shards)
    (Array.length pb.Shard.shards);
  Array.iteri
    (fun i (sa : Shard.t) ->
      let sb = pb.Shard.shards.(i) in
      Alcotest.(check int)
        (Printf.sprintf "%s: item %d shard_id" name i)
        sa.Shard.shard_id sb.Shard.shard_id;
      Alcotest.(check (array int))
        (Printf.sprintf "%s: item %d indices" name i)
        sa.Shard.indices sb.Shard.indices)
    pa.Shard.shards

let check_prepass_equal name (a : Shard.prepass) (b : Shard.prepass) =
  Alcotest.(check int) (name ^ ": nthreads") a.Shard.pp_nthreads
    b.Shard.pp_nthreads;
  Alcotest.(check int) (name ^ ": eliminated") a.Shard.pp_eliminated
    b.Shard.pp_eliminated;
  Alcotest.(check (array int))
    (name ^ ": sync indices") a.Shard.pp_sync_indices
    b.Shard.pp_sync_indices

let segmented ?skip ~jobs ~segments tr =
  let bounds = Trace.segment_bounds ~count:segments tr in
  let routes =
    Array.map
      (fun (lo, hi) -> Shard.route_segment ?skip ~jobs ~lo ~hi tr)
      bounds
  in
  Shard.concat_routes ~jobs routes tr

let check_stitching ?skip name ~jobs ~segments tr =
  let plan_s, pp_s = Shard.plan_stealing_prepass ?skip ~jobs tr in
  let plan_p, pp_p = segmented ?skip ~jobs ~segments tr in
  let name = Printf.sprintf "%s j%d seg%d" name jobs segments in
  check_plan_equal name plan_s plan_p;
  check_prepass_equal name pp_s pp_p

let test_stitching_generated () =
  List.iter
    (fun (pname, params) ->
      List.iter
        (fun seed ->
          let tr = Trace_gen.generate ~seed params in
          List.iter
            (fun (jobs, segments) ->
              check_stitching
                (Printf.sprintf "%s/seed %d" pname seed)
                ~jobs ~segments tr)
            [ (1, 1); (2, 2); (3, 5); (4, 16); (2, 1000) ])
        seeds)
    gen_params

let test_stitching_workloads () =
  List.iter
    (fun (w : Workload.t) ->
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      List.iter
        (fun segments -> check_stitching w.name ~jobs:4 ~segments tr)
        [ 1; 3; 8 ])
    Workloads.all

(* Elimination at routing time commutes with segmentation: a certified
   predicate applied per segment drops the same accesses and counts
   them once each. *)
let test_stitching_with_skip () =
  let w = Option.get (Workloads.find "moldyn") in
  let tr = Workload.trace ~seed:11 ~scale:1 w in
  let skip x = Var.hash x mod 3 = 0 in
  List.iter
    (fun segments ->
      check_stitching ~skip "moldyn+skip" ~jobs:4 ~segments tr)
    [ 1; 7 ]

(* -- 2. streamed timeline ≡ one-shot build ------------------------- *)

let check_stats_equal name (a : Sync_timeline.stats) (b : Sync_timeline.stats)
    =
  let f (what, pa, pb) =
    Alcotest.(check int) (Printf.sprintf "%s: stats.%s" name what) pa pb
  in
  List.iter f
    [ ("sync_events", a.Sync_timeline.sync_events, b.Sync_timeline.sync_events);
      ("other_events", a.Sync_timeline.other_events,
       b.Sync_timeline.other_events);
      ("vc_ops", a.Sync_timeline.vc_ops, b.Sync_timeline.vc_ops);
      ("vc_ops_skipped", a.Sync_timeline.vc_ops_skipped,
       b.Sync_timeline.vc_ops_skipped);
      ("vc_allocs", a.Sync_timeline.vc_allocs, b.Sync_timeline.vc_allocs);
      ("checkpoints", a.Sync_timeline.checkpoints, b.Sync_timeline.checkpoints);
      ("snapshots", a.Sync_timeline.snapshots, b.Sync_timeline.snapshots);
      ("snapshot_hits", a.Sync_timeline.snapshot_hits,
       b.Sync_timeline.snapshot_hits);
      ("words", a.Sync_timeline.words, b.Sync_timeline.words) ]

(* Feed the builder through the segment routes (the exact pipeline
   input), sequentially here: concurrency changes only *when* feed
   runs, never its input order, which Prefix serializes per segment. *)
let streamed_timeline ~jobs ~segments tr =
  let bounds = Trace.segment_bounds ~count:segments tr in
  let routes =
    Array.map (fun (lo, hi) -> Shard.route_segment ~jobs ~lo ~hi tr) bounds
  in
  let b = Sync_timeline.builder_create () in
  Array.iter
    (fun r -> Shard.route_iter_sync r (fun index -> Sync_timeline.feed b tr ~index))
    routes;
  let _, pp = Shard.concat_routes ~jobs routes tr in
  Sync_timeline.finalize b ~nthreads:pp.Shard.pp_nthreads

let check_timeline_oracle name tl tr =
  let cur = Sync_timeline.cursor tl in
  let nthreads = Sync_timeline.thread_count tl in
  let st = Vc_state.create (Stats.create ()) in
  let len = Trace.length tr in
  for i = 0 to len do
    for t = 0 to nthreads - 1 do
      let live = VC.to_list (Vc_state.clock st t) in
      let shared = VC.to_list (Sync_timeline.clock cur ~index:i t) in
      if live <> shared then
        Alcotest.failf "%s: clock mismatch at index %d, thread %d" name i t;
      if Vc_state.epoch st t <> Sync_timeline.epoch cur ~index:i t then
        Alcotest.failf "%s: epoch mismatch at index %d, thread %d" name i t
    done;
    if i < len then ignore (Vc_state.handle_sync st (Trace.get tr i))
  done

let check_streamed name ~jobs ~segments tr =
  let serial = Sync_timeline.build tr in
  let streamed = streamed_timeline ~jobs ~segments tr in
  let name = Printf.sprintf "%s j%d seg%d" name jobs segments in
  Alcotest.(check int) (name ^ ": thread_count")
    (Sync_timeline.thread_count serial)
    (Sync_timeline.thread_count streamed);
  check_stats_equal name (Sync_timeline.stats serial)
    (Sync_timeline.stats streamed);
  check_timeline_oracle name streamed tr

let test_streamed_generated () =
  List.iter
    (fun (pname, params) ->
      List.iter
        (fun seed ->
          let tr = Trace_gen.generate ~seed params in
          List.iter
            (fun segments ->
              check_streamed
                (Printf.sprintf "%s/seed %d" pname seed)
                ~jobs:4 ~segments tr)
            [ 1; 4; 13 ])
        seeds)
    gen_params

let test_streamed_workloads () =
  List.iter
    (fun (w : Workload.t) ->
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      check_streamed w.name ~jobs:4 ~segments:6 tr)
    Workloads.all

(* -- 3. Prefix.build end to end ------------------------------------ *)

(* The real concurrent pipeline (routing domains + builder domain),
   compared against the serial prefix: plan, prepass, timeline lookups
   and stats all equal; phase walls populated sanely. *)
let check_prefix_build name ~jobs ~segments tr =
  let plan_s, pp_s = Shard.plan_stealing_prepass ~jobs tr in
  let serial_tl =
    Sync_timeline.build_indexed ~nthreads:pp_s.Shard.pp_nthreads
      ~sync_indices:pp_s.Shard.pp_sync_indices tr
  in
  let p = Prefix.build ~segments ~jobs tr in
  let name = Printf.sprintf "%s j%d seg%d" name jobs segments in
  Alcotest.(check int) (name ^ ": segments used") segments p.Prefix.segments;
  check_plan_equal name plan_s p.Prefix.plan;
  check_prepass_equal name pp_s p.Prefix.prepass;
  check_stats_equal name
    (Sync_timeline.stats serial_tl)
    (Sync_timeline.stats p.Prefix.timeline);
  check_timeline_oracle name p.Prefix.timeline tr;
  if p.Prefix.wall < 0. || p.Prefix.route_wall < 0. || p.Prefix.build_wall < 0.
  then Alcotest.fail (name ^ ": negative phase wall")

let test_prefix_build () =
  let w = Option.get (Workloads.find "moldyn") in
  let tr = Workload.trace ~seed:11 ~scale:2 w in
  List.iter
    (fun (jobs, segments) -> check_prefix_build "moldyn" ~jobs ~segments tr)
    [ (1, 1); (2, 2); (3, 7); (4, 16) ];
  let gen =
    Trace_gen.generate ~seed:21
      { Trace_gen.threads = 5; vars = 8; locks = 2; volatiles = 1;
        length = 400; profile = Trace_gen.Mixed; barriers = true }
  in
  List.iter
    (fun (jobs, segments) -> check_prefix_build "gen" ~jobs ~segments gen)
    [ (2, 3); (3, 50) ]

(* Default segment selection: short traces and jobs<=1 stay serial. *)
let test_prefix_defaults () =
  let short =
    Trace_gen.generate ~seed:3
      { Trace_gen.default with Trace_gen.length = 100 }
  in
  let p = Prefix.build ~jobs:4 short in
  Alcotest.(check int) "short trace stays serial" 1 p.Prefix.segments;
  let w = Option.get (Workloads.find "moldyn") in
  let tr = Workload.trace ~seed:11 ~scale:2 w in
  let p1 = Prefix.build ~jobs:1 tr in
  Alcotest.(check int) "jobs=1 stays serial" 1 p1.Prefix.segments;
  let p4 = Prefix.build ~jobs:4 tr in
  Alcotest.(check bool) "long trace at jobs=4 segments" true
    (p4.Prefix.segments > 1)

let suite =
  ( "prefix",
    [ Alcotest.test_case "stitching ≡ serial routing (generated)" `Quick
        test_stitching_generated;
      Alcotest.test_case "stitching ≡ serial routing (workloads)" `Quick
        test_stitching_workloads;
      Alcotest.test_case "stitching commutes with elimination" `Quick
        test_stitching_with_skip;
      Alcotest.test_case "streamed timeline ≡ one-shot (generated)" `Quick
        test_streamed_generated;
      Alcotest.test_case "streamed timeline ≡ one-shot (workloads)" `Quick
        test_streamed_workloads;
      Alcotest.test_case "Prefix.build ≡ serial prefix (concurrent)" `Quick
        test_prefix_build;
      Alcotest.test_case "serial fallback selection" `Quick
        test_prefix_defaults ] )
