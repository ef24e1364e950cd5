(** Parallel serial prefix of the work-stealing plan.

    A stealing run used to start with two {e sequential} passes — the
    routing pass ([Shard.plan_stealing_prepass]) and the sync-timeline
    replay ([Sync_timeline.build_indexed]).  With FastTrack's O(1)
    epoch fast path making the per-item analysis cheap, that prefix
    was the driver's dominant Amdahl term: at serial fraction [s],
    speedup is capped at [1 / (s + (1-s)/jobs)] no matter how well the
    items balance.

    {!build} removes the single-threaded routing pass and overlaps the
    replay with it:

    - the trace is cut into segments ({!Trace.segment_bounds});
      routing workers pull segments dynamically and route each with
      {!Shard.route_segment} — routing is a pure per-event function,
      so per-segment runs concatenate (in segment order) to exactly
      the serial pass's result ({!Shard.concat_routes});
    - each completed segment is {e published} through an atomic slot;
      one dedicated builder domain consumes the segments' sync-event
      runs strictly in segment order, {!Sync_timeline.feed}ing them
      into an incremental machine — the same index sequence the
      one-shot build replays, so checkpoints, deltas, keyframes,
      cursor semantics and every stats counter are identical
      ([test/test_prefix.ml] asserts all of it);
    - stitching the per-slot runs overlaps the builder's tail; the
      timeline is finalized once routing has determined the thread
      count.

    The replay itself is inherently sequential (each sync event's
    post-state depends on the previous one), but it is ~3% of the
    trace; the pass that {e was} O(n) serial work is the routing, and
    that is what parallelizes.  Warnings and witnesses downstream are
    byte-identical to the sequential driver — the plan and timeline
    fed to the workers are equal, value for value, to the serial
    prefix's (same items, same order, same checkpoints). *)

type t = {
  plan : Shard.plan;
  prepass : Shard.prepass;
  timeline : Sync_timeline.t;
  segments : int;  (** segments actually used; 1 = serial fallback *)
  route_wall : float;
      (** wall seconds of the routing side: the segmented pass (or the
          whole serial pass) plus run stitching *)
  build_wall : float;
      (** builder-domain {e busy} seconds: time replaying sync events,
          excluding time spent waiting for segments *)
  wall : float;  (** total prefix wall seconds (what Amdahl charges) *)
}

val build :
  ?obs:Obs.t ->
  ?factor:int ->
  ?skip:(Var.t -> bool) ->
  ?segments:int ->
  jobs:int ->
  Trace.t ->
  t
(** Build the stealing plan and sync timeline for [tr].

    [segments] defaults to a jobs- and length-scaled count; [1] (or
    [jobs <= 1], or a short trace) selects the exact serial path —
    the degenerate case the equivalence tests pin.  [factor] and
    [skip] are {!Shard.plan_stealing_prepass}'s.  [skip] is called
    concurrently from routing domains: the certified sets [Static]
    builds are read-only, which is sufficient.

    Uses up to [jobs] routing domains (calling domain included) plus
    one builder domain for the duration of the call.  With an enabled
    [obs], records [prefix] / [prefix.route] / [prefix.timeline]
    spans and [prefix.segments] / [prefix.wall_s] gauges. *)
