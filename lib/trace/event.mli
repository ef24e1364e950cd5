(** Trace operations (Figure 1, plus the Section 4 extensions).

    The core grammar is
    [rd(t,x) | wr(t,x) | acq(t,m) | rel(t,m) | fork(t,u) | join(t,u)];
    Section 4 adds volatile reads/writes, the [barrier_rel(T)] event,
    and — for the downstream atomicity/determinism checkers of
    Section 5.2 — transaction boundary markers (the analogue of
    RoadRunner's method entry/exit events). *)

type t =
  | Read of { t : Tid.t; x : Var.t }
  | Write of { t : Tid.t; x : Var.t }
  | Acquire of { t : Tid.t; m : Lockid.t }
  | Release of { t : Tid.t; m : Lockid.t }
  | Fork of { t : Tid.t; u : Tid.t }
  | Join of { t : Tid.t; u : Tid.t }
  | Volatile_read of { t : Tid.t; v : Volatile.t }
  | Volatile_write of { t : Tid.t; v : Volatile.t }
  | Barrier_release of { threads : Tid.t list }
      (** [barrier_rel(T)]: the set [T] of threads is simultaneously
          released from a barrier. *)
  | Txn_begin of { t : Tid.t }
  | Txn_end of { t : Tid.t }

val tid : t -> Tid.t option
(** The acting thread; [None] for [Barrier_release], which involves a
    set of threads. *)

val is_access : t -> bool
(** True for [Read] and [Write] (the 96 %+ of monitored operations the
    fast paths target). *)

val is_sync : t -> bool
(** True for everything that is neither a data access nor a transaction
    marker. *)

val equal : t -> t -> bool

(** {2 Text form}

    One event is written [name(arg,...)], exactly as {!to_string}
    prints it: [rd(t,x)], [wr(t,x)], [acq(t,m)], [rel(t,m)],
    [fork(t,u)], [join(t,u)], [vrd(t,v)], [vwr(t,v)],
    [barrier(t,...)], [begin(t)] and [end(t)], where a variable is
    [xN] or [xN.F], a lock [mN] and a volatile [vN].  Blanks
    ({!is_blank}) may surround the event and each argument.  Ids are
    non-negative decimal integers; thread ids are at most {!Tid.max},
    objects at most {!Var.max_obj}, fields at most {!Var.max_field},
    and locks and volatiles fit an [int]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the text form of the event. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

val is_blank : char -> bool
(** [String.trim]'s whitespace: space, tab, CR, LF and form feed. *)

type cursor
(** A scanning position in one input string. *)

val cursor : string -> cursor

val scan : cursor -> int -> int -> t
(** [scan c lo hi] parses the event written in [s.[lo..hi-1]] of the
    cursor's string [s], in place, allocating nothing but the event.
    It is the one scanner behind {!of_string} and {!Trace.of_string}.
    @raise Failure with the message {!of_string} returns. *)

val of_string : string -> (t, string) result
(** Parses the text form of one event (e.g. ["rd(1,x3)"],
    ["acq(0,m2)"], ["barrier(0,1,2)"]).  Never raises. *)
