(** Vector clocks [VC : Tid → Nat] (Section 2.2 of the paper).

    A vector clock records a clock for each thread in the system.  The
    representation is a growable integer array indexed by thread
    identifier; entries beyond the current capacity are implicitly [0],
    so the minimal element [⊥V] is the empty vector.

    All mutating operations ([set], [inc], [join_into], …) update the
    clock in place, mirroring the constant-space in-place updates of the
    paper's implementation.  Operations whose cost is O(n) in the number
    of threads — [join_into], [leq], [copy], [copy_into] — are exactly
    the "expensive" operations highlighted in grey in Figure 2; callers
    that care about instrumentation counts (the detectors) count their
    invocations. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] is [⊥V], the vector that maps every thread to clock 0. *)

val bottom : unit -> t
(** Alias for [create ()]. *)

val get : t -> int -> int
(** [get v t] is [V(t)]; [0] for threads beyond the capacity. *)

val set : t -> int -> int -> unit
(** [set v t c] updates [V(t) := c], growing the vector as needed. *)

val inc : t -> int -> unit
(** [inc v t] is the paper's [inc_t]: [V(t) := V(t) + 1]. *)

val join_into : dst:t -> t -> unit
(** [join_into ~dst src] sets [dst := dst ⊔ src] (pointwise max).
    O(n) time. *)

val copy : t -> t
(** Fresh copy.  O(n) time and space — a "vector clock allocation" in
    the sense of Table 2. *)

val with_entry : ?min_len:int -> t -> tid:int -> clock:int -> t
(** [with_entry v ~tid ~clock] is a {e fresh} vector clock equal to
    [v[tid := clock]].  [min_len] pads the result with explicit zero
    entries up to the given logical length: the published VC tools
    size each location's clocks to the full thread count, which is
    what makes their every comparison O(n) — pass the current thread
    clock's length to reproduce that.  This functional update is how the VC-based
    tools (BasicVC, DJIT+, MultiRace) record an access in a location's
    read/write clock: RoadRunner back-ends process events from many
    target threads, so a shadow vector clock is replaced wholesale
    rather than mutated under concurrent readers.  The resulting
    allocation-per-access is exactly the cost Table 2 quantifies —
    and the cost FastTrack's immediate-integer epochs avoid. *)

val clear : t -> unit
(** Resets every entry to [0] (back to [⊥V]), keeping the capacity. *)

val copy_into : dst:t -> t -> unit
(** [copy_into ~dst src] overwrites [dst] with the contents of [src].
    O(n) time, no allocation beyond possible growth. *)

val advance : last:t -> t -> int array -> int
(** [advance ~last cur buf] writes every entry where [cur] differs
    from [last] into [buf] as consecutive [u; cur(u)] pairs, sets
    [last := cur] on those entries only, and returns the number of
    pairs.  One O(n) pass with no allocation beyond growing [last];
    [buf] must hold [2 * max (length last) (length cur)] ints.  This is
    how a sparse checkpoint records only what a sync event raised. *)

val leq : t -> t -> bool
(** [leq v1 v2] is [v1 ⊑ v2]: [∀t. V1(t) ≤ V2(t)].  O(n) time. *)

val equal : t -> t -> bool

val find_gt : t -> t -> (int * int) option
(** [find_gt v1 v2] is a witness [(t, v1(t))] with [v1(t) > v2(t)], if
    any — the failing component of a [leq] check, used to attribute a
    race to the earlier access. *)

val epoch_of : t -> int -> Epoch.t
(** [epoch_of v t] is the epoch [V(t)@t] — the paper's [E(t)] when [v]
    is thread [t]'s clock [C_t]. *)

val epoch_leq : Epoch.t -> t -> bool
(** [epoch_leq e v] is the O(1) comparison [e ⪯ v], i.e.
    [clock e <= V(tid e)].  This is FastTrack's fast-path test. *)

val length : t -> int
(** Logical length: one past the largest index ever written. *)

val capacity : t -> int
(** Current backing-array capacity (threads with possibly non-zero
    entries are [0 .. capacity - 1]). *)

val heap_words : t -> int
(** Approximate heap footprint in words (array contents + headers);
    used for the Table 3 memory-overhead accounting. *)

val to_list : t -> int list
(** Clock entries [0 .. capacity-1], trailing zeros trimmed. *)

val of_list : int list -> t

val pp : Format.formatter -> t -> unit
(** Prints [⟨c0,c1,...⟩] in the paper's notation. *)
