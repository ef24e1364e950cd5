(** Variable-sharded partitioning of a trace for the parallel driver.

    FastTrack's per-variable shadow states are independent of one
    another: the only state shared between accesses to different
    variables is the synchronization component ([C]/[L] of Figure 4),
    which is written exclusively by synchronization events.  The event
    stream therefore parallelizes by {e variable sharding}: each
    access event [rd(t,x)]/[wr(t,x)] is routed to exactly one shard,
    chosen by [x]'s object identifier ({!Var.owner_shard}).

    Two plans handle the synchronization component:

    - {!plan} ({e static}): exactly [jobs] shards, [obj mod jobs];
      every synchronization event is additionally {e broadcast} to all
      shards, whose private sync state replays the full Figure 3 rule
      sequence.  Simple, but the replay costs [jobs] x O(sync·VC)
      redundant work and the modulo split can strand hot objects on
      one shard — the measured causes of the original driver's
      anti-scaling (see DESIGN.md).
    - {!plan_stealing} ({e work stealing}): [factor x jobs]
      fine-grained items of {e access events only} ([obj mod slots]),
      sorted longest-first; sync state is resolved against the shared
      read-only [Sync_timeline] built once, and workers pull items
      dynamically ({!Domain_pool.run_queue}), so hot objects pin at
      most one worker.

    Because each split preserves the relative order of the events each
    shard receives, and the original trace index travels with each
    event, a detector run over a shard produces exactly the warnings
    the sequential run produces for that shard's variables — with the
    same trace indices and prior epochs (see DESIGN.md §"Parallel
    sharded driver" and §"Sync timeline + work stealing" for the
    argument). *)

type t = {
  shard_id : int;
  trace : Trace.t;  (** shared, immutable *)
  indices : int array;
      (** original trace positions of this shard's events, increasing *)
  accesses : int;  (** read/write events owned by this shard *)
}

type kind =
  | Static  (** [jobs] shards, sync broadcast, one domain each *)
  | Stealing
      (** [factor x jobs] access-only items over a shared sync
          timeline, pulled dynamically by [jobs] workers *)

val kind_to_string : kind -> string
(** ["static"] / ["stealing"] — the [plan] field of benchmark records
    and metrics documents. *)

type plan = {
  jobs : int;
  kind : kind;
  slots : int;
      (** number of shard work items: [= jobs] for [Static],
          [factor x jobs] for [Stealing] *)
  shards : t array;
      (** length [slots]; shard-id order for [Static], LPT
          (descending accesses, ties by shard id) for [Stealing] *)
  broadcast : int;
      (** number of non-access events: replicated to every shard under
          [Static] (the duplicated-work term of the cost model),
          replayed exactly once into the sync timeline under
          [Stealing] *)
}

val shard_of_var : jobs:int -> Var.t -> int
(** Alias for {!Var.owner_shard}. *)

val plan : jobs:int -> Trace.t -> plan
(** Materializes the legacy [max 1 jobs]-way static split (access
    events + full sync broadcast per shard).  One counting pass plus
    one {!Trace.iter_shard} per shard; only index arrays are
    allocated, events are never copied. *)

type prepass = {
  pp_nthreads : int;  (** max tid over every event, + 1 *)
  pp_sync_indices : int array;
      (** trace indices of every non-access event, increasing — the
          exact input [Sync_timeline.build_indexed] replays *)
  pp_eliminated : int;
      (** accesses dropped at routing time by [?skip] (0 without it) *)
}
(** Byproduct of the stealing plan's single trace pass: everything the
    sync-timeline build needs, collected for free so the whole serial
    prefix of a stealing run reads the trace exactly once. *)

val plan_stealing_prepass :
  ?factor:int -> ?skip:(Var.t -> bool) -> jobs:int -> Trace.t -> plan * prepass
(** Materializes the work-stealing split: [max 1 factor * jobs] items
    (default factor {!default_steal_factor}) containing {e only} the
    access events of the objects they own, LPT-sorted.  One pass, no
    event copies.  Items may be empty (few distinct objects);
    consumers skip them.

    [skip] is the static check-elimination hook ([Config.static_elim]
    routed through [Driver.run_stealing]): accesses satisfying it are
    dropped during routing — before items exist — and counted in
    [pp_eliminated], so the LPT order and worker balance reflect the
    post-elimination load.  Sync events are never skipped. *)

val plan_stealing :
  ?factor:int -> ?skip:(Var.t -> bool) -> jobs:int -> Trace.t -> plan
(** [fst (plan_stealing_prepass ...)], for callers that build their
    own timeline (tests). *)

(** {2 Segmented routing (the parallel prefix)}

    {!plan_stealing_prepass} is a single sequential trace pass — the
    serial prefix of a stealing run, and its Amdahl term.  Routing is
    a {e pure per-event function} ([x.obj mod slots] for accesses,
    "push to the sync run" for everything else), so the pass segments
    trivially: {!route_segment} routes one half-open trace range into
    private per-slot index runs, and {!concat_routes} stitches any
    partition's runs back — in segment order — into {e exactly} the
    serial pass's plan and prepass (same item index sequences, same
    LPT order, same sync indices, same thread count; asserted against
    the serial path in [test/test_prefix.ml]).  [Prefix.build] runs
    the segments on separate domains and pipelines the sync-timeline
    build against routing. *)

type segment_route
(** One segment's routing byproduct: per-slot index runs, the
    segment's sync-event run, max tid and elimination count. *)

val route_segment :
  ?factor:int -> ?skip:(Var.t -> bool) -> jobs:int -> lo:int -> hi:int ->
  Trace.t -> segment_route
(** Route the events of [[lo, hi)] exactly as the serial pass would
    ([factor]/[skip] as in {!plan_stealing_prepass}).  Pure function
    of the segment: safe to run concurrently for disjoint segments
    ([skip] must itself be safe for concurrent calls — the certified
    sets built by [Static] are read-only hash tables, which are). *)

val route_iter_sync : segment_route -> (int -> unit) -> unit
(** Iterate the segment's non-access event indices in trace order —
    the pipelined timeline builder's input, copy-free. *)

val concat_routes :
  jobs:int -> segment_route array -> Trace.t -> plan * prepass
(** Stitch the segments' runs (given in segment order, covering the
    trace) into the stealing plan and prepass.  Equal to
    [plan_stealing_prepass]'s result for {e any} segmentation.  All
    routes must share one [factor]/[jobs] (hence slot count).
    @raise Invalid_argument on an empty route array. *)

val default_steal_factor : int
(** Items per worker (8): enough slack for dynamic balancing while
    keeping per-item detector-instance overhead negligible. *)

val length : t -> int

val iter_range : lo:int -> hi:int -> (int -> Event.t -> unit) -> t -> unit
(** [iter_range ~lo ~hi f s] calls [f original_trace_index event] for
    the shard's events at positions [[lo, hi)] of [indices], in trace
    order.  Out-of-range bounds are clamped. *)

val imbalance : plan -> float
(** Max over mean of per-shard owned-access counts (1.0 = perfectly
    balanced).  For a [Stealing] plan this measures the {e items},
    not the workers — the driver reports the per-worker figure, which
    is what work stealing drives toward 1.0. *)

val imbalance_of_counts : int array -> float
(** The same max-over-mean statistic on a bare count array;
    [Driver.run_parallel] computes it from per-worker access totals so
    the measurement costs no extra trace pass, and it is exported in
    [ftrace analyze -j] output and [Bench_json] records.  Empty or
    all-zero arrays report [1.0]. *)
