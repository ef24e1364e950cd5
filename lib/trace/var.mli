(** Shared variables [x ∈ Var] (Figure 1).

    A variable names one memory location of the target program: field
    [field] of object [obj] (or element [field] of array [obj]).  This
    two-level structure supports the two analysis granularities of
    Section 4: the fine-grain analysis gives each field its own shadow
    state, while the coarse-grain analysis treats all fields of an
    object as a single entity. *)

type t = { obj : int; field : int }

type granularity =
  | Fine    (** one shadow location per (object, field) pair *)
  | Coarse  (** one shadow location per object *)

val make : obj:int -> field:int -> t
(** @raise Invalid_argument if a component is negative or [field]
    exceeds {!max_field}. *)

val scalar : int -> t
(** [scalar i] is a standalone location (object [i], field 0);
    convenient for small example traces. *)

val max_field : int
(** Largest representable field index. *)

val max_obj : int
(** Largest object id a trace file may name (2{^22} - 1): shadow
    memory keeps a dense per-object table, so {!Event.scan} refuses
    larger ones. *)

val key : granularity -> t -> int
(** [key g x] is the shadow-memory key for [x] under granularity [g]:
    distinct variables get distinct keys under [Fine]; variables of the
    same object share a key under [Coarse]. *)

val owner_shard : jobs:int -> t -> int
(** [owner_shard ~jobs x] is the variable-shard owning [x] when the
    analysis is split [jobs] ways: [x.obj mod jobs].  Sharding is by
    object — not by [(obj, field)] — so that the coarse and adaptive
    granularities, which share shadow state (and the
    at-most-one-warning key) between all fields of an object, see each
    key's full access stream on a single shard.  Deterministic and
    trace-independent. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
