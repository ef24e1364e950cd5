(** Execution traces [α ∈ Trace = Operation*] (Section 2.1).

    A trace lists the sequence of operations performed by the various
    threads of one program execution.  Traces are immutable once built;
    use {!Builder} to accumulate events. *)

type t

val of_list : Event.t list -> t
val of_array : Event.t array -> t
(** The array is copied. *)

val to_list : t -> Event.t list
val length : t -> int
val get : t -> int -> Event.t
val iter : (Event.t -> unit) -> t -> unit
val iteri : (int -> Event.t -> unit) -> t -> unit

val iter_shard :
  ?lo:int -> ?hi:int -> jobs:int -> shard:int -> (int -> Event.t -> unit) ->
  t -> unit
(** The shard-split iterator of the parallel driver: calls
    [f index event] — in trace order, with {e original} trace indices —
    for the sub-stream belonging to shard [shard] of a [jobs]-way
    variable split: the access events whose variable the shard owns
    ({!Val:Var.owner_shard}) plus {e every} synchronization and
    transaction event, which are broadcast so each shard can replay
    the full happens-before structure in its private sync state.
    Zero-copy: nothing is materialized, so concurrent [iter_shard]s
    from several domains share the immutable trace.
    [iter_shard ~jobs:1 ~shard:0] enumerates the whole trace; [lo]/[hi]
    (default: the whole trace, clamped like {!iter_range}) restrict the
    scan to the half-open segment [[lo, hi)]. *)

val iter_range : lo:int -> hi:int -> (int -> Event.t -> unit) -> t -> unit
(** [iter_range ~lo ~hi f tr] calls [f index event] for every event of
    the half-open segment [[lo, hi)], in trace order with original
    indices — the per-segment iterator of the parallel prefix
    ([Shard.route_segment]).  Out-of-range bounds are clamped. *)

val segment_bounds : count:int -> t -> (int * int) array
(** [count] half-open [(lo, hi)] ranges covering the trace in order,
    sizes differing by at most one; concatenating them is the identity
    partition the segmented prefix's stitching invariant relies on.
    [count <= 1] yields the whole trace as one segment. *)

val fold : ('a -> Event.t -> 'a) -> 'a -> t -> 'a

val max_tid : t -> int
(** Largest thread identifier mentioned; [-1] for the empty trace. *)

val thread_count : t -> int
(** [max_tid + 1]. *)

val vars : t -> Var.t list
(** Distinct variables accessed, in first-access order. *)

val counts : t -> int * int * int
(** [(reads, writes, other)] — the operation mix of Figure 2. *)

val append : t -> t -> t

val pp : Format.formatter -> t -> unit
(** One event per line. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses the one-event-per-line format of {!pp}.  Blank lines and
    lines starting with ['#'] are ignored. *)

(** Mutable trace accumulator. *)
module Builder : sig
  type trace := t
  type t

  val create : ?initial_capacity:int -> unit -> t
  val add : t -> Event.t -> unit
  val length : t -> int
  val build : t -> trace
end
