(** Where a detector's synchronization state comes from.

    Every VC-based detector needs, at each access, the acting thread's
    current vector clock [C_t] and epoch [E(t)]; lockset detectors
    additionally need the thread's held-lock set and the barrier
    generation.  Historically each detector instance owned a private
    {!Vc_state} and replayed {e every} synchronization event into it —
    correct, but in the sharded parallel driver this meant [jobs]
    redundant O(n)·VC replays of the same sync stream, the measured
    cause of the driver's anti-scaling.

    [Clock_source] puts those lookups behind one interface with two
    implementations, so the sequential and sharded analyses share the
    same hot path:

    - {e Live} (sequential runs, legacy broadcast shards): a private
      {!Vc_state}; {!handle_sync} applies the Figure 3 / Section 4
      rules, lookups read the live state.  [~index] is ignored — the
      state {e is} the current index's.
    - {e Shared} (work-stealing shards): a private {!Sync_timeline}
      cursor over the immutable timeline the driver built once;
      {!handle_sync} is a no-op (the timeline already replayed the
      sync stream), lookups resolve checkpoints at [~index].

    The mode is chosen by {!Config.sync_source}: [None] = Live,
    [Some timeline] = Shared.  A detector written against this
    interface produces identical warnings and witnesses in both modes
    (asserted across workloads in [test/test_timeline.ml] and
    [test/test_parallel.ml]). *)

type t

val create : Config.t -> Stats.t -> t
(** Live over a fresh [Vc_state.create stats], or Shared over a fresh
    cursor into [config.sync_source]'s timeline.  One per detector
    instance: cursors are private and must not cross domains. *)

val is_shared : t -> bool

val handle_sync : t -> Event.t -> bool
(** Live: {!Vc_state.handle_sync} (applies the rule, returns [true]
    for non-access events).  Shared: [true] for non-access events
    without touching anything, [false] for accesses — so detectors
    keep the idiom [if not (handle_sync s e) then analyze e]. *)

val epoch : t -> index:int -> Tid.t -> Epoch.t
(** Thread [t]'s epoch [E(t) = C_t(t)@t] as of trace position
    [index].  Live ignores [index]. *)

val clock : t -> index:int -> Tid.t -> Vector_clock.t
(** Thread [t]'s vector clock as of [index].  In Shared mode this is
    the cursor's materialised clock for [t]: read-only, and valid
    until the next [clock] lookup for [t] (Live: until the next sync
    event). *)

val thread_count : t -> int

(** {2 Lock / barrier facet}

    For lockset-style detectors (Eraser, MultiRace) that need the
    held-lock set and barrier generation rather than clocks.  Kept
    separate from {!t} so Eraser pays for no [Vc_state]. *)

type locks

val locks : Config.t -> locks
(** Live lock tracking, or a Shared cursor, per [config.sync_source]. *)

val locks_on_event : locks -> Event.t -> unit
(** Live: update the held-lock picture on [Acquire]/[Release] and the
    barrier generation on [Barrier_release].  Shared: no-op. *)

val held_locks : locks -> index:int -> Tid.t -> int * Lockid.t list
(** Locks held by [t] just before [index], as [(stamp, sorted set)].
    Equal stamps (per thread) identify equal sets, so callers can
    memoize derived representations (see [Lockset.Held_view]). *)

val barrier_generation : locks -> index:int -> int
(** Number of [Barrier_release] events strictly before [index]. *)
