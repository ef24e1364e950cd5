(** Thread identifiers [t ∈ Tid] (Figure 1 of the paper).

    Represented as small non-negative integers so they can index the
    vector-clock arrays directly. *)

type t = int

val max : t
(** Largest thread id a trace file may name (4095): tids index dense
    per-thread tables, so {!Event.scan} refuses larger ones. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
