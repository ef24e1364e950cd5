(** Dense shadow memory.

    RoadRunner attaches each location's [VarState] directly to the
    field or array slot, so looking up the shadow state costs a couple
    of loads — not a hash-table probe.  This module reproduces that:
    a two-level array indexed by object id and field index (or object
    id alone under the coarse-grain analysis).  Keeping this lookup
    cheap is what lets the detectors' per-access analysis costs — one
    epoch comparison versus O(n) vector-clock work — show up in the
    measured slowdowns, as they do in the paper.

    The [Adaptive] mode implements the on-line granularity adaptation
    Section 5.1 sketches (after RaceTrack [42]): objects start
    coarse-grain; when the analysis would warn about a coarse
    location, the detector calls {!refine} instead, and from then on
    that object's fields get individual shadow states.  The refined
    fields start from fresh (empty) states — the "some loss of
    precision" the paper mentions. *)

type mode = Fine | Coarse | Adaptive

type 'a t

val create : mode -> 'a t

val find : 'a t -> Var.t -> 'a option
(** The shadow state of [x]'s location, if initialized. *)

val get : 'a t -> Var.t -> (Var.t -> 'a) -> 'a
(** [get t x init] returns the location's state, creating it with
    [init x] on first access. *)

val key : 'a t -> Var.t -> int
(** A key identifying [x]'s location (for warning deduplication):
    distinct locations — under the current granularity and refinement
    — have distinct keys. *)

val refine : 'a t -> Var.t -> unit
(** Switch [x]'s object to fine-grain shadowing ([Adaptive] mode
    only; a no-op otherwise).  Its coarse state is abandoned and
    subsequent accesses to each field create fresh states. *)

val refined : 'a t -> Var.t -> bool

val count : 'a t -> int
(** Number of initialized locations. *)

val iter : ('a -> unit) -> 'a t -> unit
