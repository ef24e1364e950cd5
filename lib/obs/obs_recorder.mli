(** Per-variable flight recorder: a fixed-size ring buffer of the most
    recent accesses to each shadow location, plus a running picture of
    which locks each thread holds.

    The recorder is the provenance half of the observability layer
    (ISSUE 3): when a race fires, the last [capacity] accesses to the
    racy location — who touched it, at which trace index, under which
    epoch, holding which locks — are still in the ring, so the report
    can show the {e history} that led to the race instead of only its
    final two accesses.  SmartTrack (Roemer et al., PLDI 2020) showed
    this kind of per-operation provenance accounting is affordable
    when kept O(1) per event; this module follows that discipline:

    - {b O(1) record}: one ring-slot store per access (amortized; the
      first access to a location allocates its ring), one list cons /
      head-drop per lock operation;
    - {b zero cost when disabled}: the {!disabled} handle is a shared
      immediate; every operation on it is a single branch and no
      allocation, mirroring {!Obs.disabled} — the default analysis
      path is byte-identical with the recorder off (asserted in
      [test/test_report.ml]);
    - {b bounded memory}: at most [capacity] entries per distinct
      shadow key, so the footprint is [O(capacity x live locations)]
      regardless of trace length (see DESIGN.md §"Recorder memory
      bounds").

    Recorders are {e not} synchronized: the
    driver gives each analysis unit a private {!shard_view} and
    {!merge}s them after the run.  Variable sharding makes the
    merge trivial — a shard only ever records accesses to keys it
    owns, so the per-key rings of different shards are disjoint — and
    each shard replays the full broadcast sync stream, so every view's
    lock picture is the complete one.

    The module lives in [ft_obs] and is deliberately type-agnostic:
    keys, thread ids, lock ids and epochs are plain [int]s (the
    detector passes [Shadow.key], [Tid.t], [Lockid.t] and
    [Epoch.to_int] respectively), keeping [ft_obs] free of any
    dependency on the trace or vclock libraries. *)

type op = Read | Write

type entry = {
  e_index : int;  (** trace position of the access *)
  e_tid : int;
  e_op : op;
  e_epoch : int;  (** packed epoch ([Epoch.to_int]) of the accessor *)
  e_clock : int;  (** the accessor's clock component, for display *)
  e_locks : int array;
      (** lock ids held by [e_tid] at the access, outermost first *)
}

type t

val disabled : t
(** The inert handle; all operations are no-ops, {!entries} is empty. *)

val default_capacity : int
(** 8 entries per location. *)

val create : ?capacity:int -> unit -> t
(** A fresh enabled recorder keeping the last [capacity] (default
    {!default_capacity}, min 1) accesses per shadow key. *)

val is_enabled : t -> bool
val capacity : t -> int
(** [0] when disabled. *)

(** {2 Hot path} *)

val note_acquire : t -> tid:int -> lock:int -> unit
val note_release : t -> tid:int -> lock:int -> unit
(** Maintain the per-thread held-lock picture.  Release removes the
    innermost matching acquisition (reentrant acquires nest). *)

val record :
  t -> key:int -> index:int -> tid:int -> op:op -> epoch:int ->
  clock:int -> unit
(** Push one access into [key]'s ring, capturing the locks [tid]
    currently holds; overwrites the oldest entry when full. *)

(** {2 Introspection (cold)} *)

val locks_held : t -> tid:int -> int array
(** Snapshot of the locks [tid] holds right now, outermost first;
    [[||]] when disabled. *)

val entries : t -> key:int -> entry list
(** The ring for [key], oldest first; [[]] when disabled or never
    recorded. *)

val keys : t -> int list
(** Keys with at least one recorded access, ascending. *)

val recorded : t -> int
(** Total accesses recorded (including since-overwritten ones). *)

val dropped : t -> int
(** Entries lost to ring wraparound ([recorded - still buffered]). *)

val vars_tracked : t -> int
(** Distinct keys with a live ring. *)

val approx_words : t -> int
(** Approximate heap footprint in words: rings, entries and the lock
    arrays they captured.  The documented bound is
    [vars_tracked x capacity x (entry header + fields)] plus the held
    locks; see DESIGN.md. *)

(** {2 Sharding} *)

val shard_view : t -> t
(** A private recorder for one shard of a parallel region: same
    capacity, fresh rings, fresh lock picture (the shard replays the
    full broadcast sync stream, so its picture is complete).
    {!disabled} maps to itself. *)

val merge : into:t -> t -> unit
(** Fold a shard view's rings, totals and lock picture back into the
    parent.  Per-key rings are disjoint under variable sharding, so
    this is a move, not an interleave; every view's lock picture is
    the complete one, so the parent keeps the widest.  No-op if either
    side is disabled. *)
