(** Shared sync-timeline snapshots.

    The sharded driver's original design replayed the {e full}
    synchronization stream privately in every shard: [jobs] copies of
    the same O(n)·VC work — exactly the redundancy FastTrack's epochs
    were invented to avoid, and the measured cause of the driver's
    anti-scaling (speedup 0.2–0.35× at [--jobs 8]).

    This module replaces that with a {e single} sequential pass built
    once before the shards run.  It replays every sync event through a
    private vector-clock machine implementing the same Figure 3 /
    Section 4 rules as [Vc_state] (the two are asserted equal in
    [test/test_timeline.ml]) and checkpoints, per thread:

    - the post-event clock [C_t] as a {e delta}: the [(u, C_t(u))]
      entries the event raised over the thread's previous checkpoint
      (found in one pass by [Vector_clock.advance]), with a full
      keyframe clock every {!key_every} checkpoints.  A sync event
      that leaves the clock unchanged records nothing.  A checkpoint
      thus costs O(entries raised) space, not O(threads);
    - the cached epoch [E(t) = C_t(t)@t];
    - the held-lock set (for lockset-based detectors) with a
      per-thread [stamp] ordinal enabling memoized conversions;
    - the stream of [Barrier_release] indices (for barrier-generation
      detectors).

    Sync events are ~3% of a typical trace and a delta is usually a
    few entries, so the timeline is small (see [stats] and DESIGN.md
    §"Sync timeline + work stealing") and shared {e read-only} by
    every analysis domain.  Each cursor materialises the clocks it
    is asked for privately.

    {2 Visibility rule}

    A checkpoint recorded at sync index [j] is visible to lookups with
    [index > j]: a detector processing the access at trace position
    [i] observes exactly the sync state a sequential run would have
    accumulated on reaching [i].  The initial state σ₀ (each thread's
    clock at [inc_t ⊥V]) is recorded at index [-1], so every lookup
    resolves. *)

type t
(** Immutable timeline: safe to share across domains without locks. *)

(** Build-time statistics, folded into driver stats and exported as
    [timeline.*] observability gauges. *)
type stats = {
  sync_events : int;  (** sync events replayed (once, total) *)
  other_events : int;
      (** broadcastable non-sync, non-access events (txn markers) *)
  vc_ops : int;  (** O(n) clock operations, counted as [Vc_state] does *)
  vc_allocs : int;  (** live-machine clock allocations *)
  checkpoints : int;  (** clock checkpoints recorded across all threads *)
  snapshots : int;
      (** keyframe clocks: [Σ_t ⌈checkpoints_t / key_every⌉] *)
  snapshot_hits : int;
      (** sync events that left a written clock unchanged (skipped) *)
  words : int;  (** approx heap words of the timeline *)
}

val build : Trace.t -> t
(** One sequential replay of [tr]'s sync events.  O(sync events · VC)
    time plus one collecting trace pass; O(entries raised + keyframes ·
    threads) space. *)

val build_indexed :
  nthreads:int -> sync_indices:int array -> Trace.t -> t
(** Like {!build}, but replays only the given non-access event indices
    (increasing) — the driver feeds it [Shard.plan_stealing_prepass]'s
    byproduct so the stealing run's serial prefix reads the trace
    exactly once.  [nthreads] must cover every tid in the trace. *)

(** {2 Incremental builder (the pipelined prefix)}

    [Prefix.build] overlaps the timeline build with segmented routing:
    a dedicated builder domain {!feed}s each segment's sync-event run
    as it is published, in segment order — the same index sequence
    {!build_indexed} replays, so the result (checkpoints, keyframes,
    cursor semantics {e and} every [stats] counter) is identical to
    the one-shot build's; asserted in [test/test_prefix.ml].  Threads
    are created on first touch and padded at {!finalize}, because the
    trace's thread count is only known once routing has finished.

    A builder is single-domain mutable state: feed it from one domain
    at a time, and hand it across domains only through a
    synchronizing operation (the prefix hands it through
    [Domain.join]). *)

type builder

val builder_create : unit -> builder

val feed : builder -> Trace.t -> index:int -> unit
(** Replay the (non-access) event at [index].  Indices must arrive in
    increasing order across all feeds. *)

val finalize : builder -> nthreads:int -> t
(** Freeze into an immutable timeline covering [max nthreads seen]
    threads; threads no sync event touched get their initial σ₀
    checkpoint, exactly as {!build_indexed} records them. *)

val key_every : int
(** A full keyframe clock is kept for every [key_every]-th checkpoint of
    a thread (32); the checkpoints in between store only the entries
    their sync event raised. *)

val stats : t -> stats
val thread_count : t -> int

(** {2 Cursors}

    A cursor is a private, mutable bundle of positions into the shared
    checkpoint arrays, plus one materialised clock per thread — one
    cursor per detector instance, never shared across domains.
    Lookups at monotonically non-decreasing indices (the common case:
    shards walk events in trace order) amortize to O(1) seeks, and a
    {!clock} lookup applies the deltas between the thread's previous
    and current checkpoint.  An index regression restarts the
    affected thread's scan, and {!clock} then restarts from the
    nearest keyframe. *)

type cursor

val cursor : t -> cursor
val cursor_timeline : cursor -> t

val clock : cursor -> index:int -> Tid.t -> Vector_clock.t
(** [clock cur ~index t] is thread [t]'s vector clock as of trace
    position [index] (exclusive).  The returned clock belongs to the
    cursor: it is valid until the cursor's next {!clock} lookup for the
    same thread, as [Vc_state.clock] is until the next sync event, and
    callers must treat it as read-only.  Applies the deltas since the
    cursor's previous lookup for [t]; when the cursor moved backwards
    or a keyframe lies in between, it first copies the nearest keyframe
    at or before the target, so one lookup costs at most one O(n) copy
    plus [key_every - 1] deltas.
    @raise Invalid_argument if [t] is outside the trace's threads. *)

val epoch : cursor -> index:int -> Tid.t -> Epoch.t
(** [epoch cur ~index t] = [clock cur ~index t](t)@t, precomputed: it
    only moves the cursor's position and materialises no clock. *)

val held_locks : cursor -> index:int -> Tid.t -> int * Lockid.t list
(** Locks held by [t] just before [index], as [(stamp, sorted set)].
    [stamp] is a per-thread ordinal identifying the set — equal stamps
    (for one thread) mean the identical list, so callers can memoize
    derived representations keyed on [(t, stamp)]. *)

val barrier_generation : cursor -> index:int -> int
(** Number of [Barrier_release] events strictly before [index]. *)
