(** A small DSL for concurrent programs.

    This is the reproduction's substitute for RoadRunner's instrumented
    Java programs: a program is a set of threads, each a straight-line
    sequence of statements; the {!Scheduler} interleaves them under a
    seeded PRNG and emits the corresponding event trace.  Control flow
    (loops, conditionals) is resolved at construction time by the
    workload generators, which build the statement arrays
    programmatically.

    Threads come in two spawn tiers.  The original {e fork/join} tier
    ([Fork]/[Join]) models raw threads.  The {e async-finish} tier
    ([Async]/[Finish]) models task pools in the X10 / Habanero /
    domainslib style: [Async u] starts task [u] and registers it with
    the innermost enclosing [Finish] scope (the spawner's own, or the
    one it was itself spawned under); a [Finish] block does not
    complete until every task transitively registered with it has
    finished.  The scheduler emits plain fork/join-shaped events for
    the task tier, so every downstream detector works unchanged — but
    the static layer ({!module:Ft_static.Static}) exploits the
    series-parallel structure the scoping guarantees. *)

type stmt =
  | Read of Var.t
  | Write of Var.t
  | Acquire of Lockid.t
      (** re-entrant: nested acquires of a held lock are filtered out
          of the event stream, as RoadRunner does *)
  | Release of Lockid.t
  | Fork of Tid.t               (** target thread starts running *)
  | Join of Tid.t               (** blocks until target finishes *)
  | Volatile_read of Volatile.t
  | Volatile_write of Volatile.t
  | Barrier_wait of int         (** blocks until the barrier fills *)
  | Wait of Lockid.t
      (** [m.wait()]: releases [m], later re-acquires it — modeled, as
          in Section 4, by its underlying release and acquisition.
          The thread must hold [m]. *)
  | Txn_begin                   (** atomic-block marker (Section 5.2) *)
  | Txn_end
  | Async of Tid.t
      (** task-tier spawn: starts task [Tid.t] and registers it with
          the innermost enclosing finish scope (emits a fork event) *)
  | Finish of stmt list
      (** finish scope: runs the body, then blocks until every task
          transitively registered with the scope has finished (emits
          one join event per registered task); nests freely *)

type thread = { tid : Tid.t; body : stmt list }

type barrier = { id : int; parties : int }
(** A cyclic barrier: every time [parties] threads are waiting on it,
    all are released together (one [barrier_rel] event). *)

type t = private {
  threads : thread list;
  barriers : barrier list;
  roots : Tid.t list;  (** threads running at program start *)
}

val make : ?barriers:barrier list -> ?roots:Tid.t list -> thread list -> t
(** [make threads] builds a program.  [roots] defaults to the threads
    never targeted by a [Fork] or [Async].
    @raise Invalid_argument (naming the offending thread or barrier)
    on duplicate thread ids, spawns of unknown, root, or self threads,
    a thread targeted by both [Fork] and [Async], async targets
    unreachable from any root (spawn cycles), duplicate barrier ids,
    or barriers with fewer than 2 parties. *)

val thread_count : t -> int

val iter_stmts : (stmt -> unit) -> stmt list -> unit
(** Pre-order iteration over a statement list, descending into
    [Finish] bodies (the [Finish] node itself is visited first). *)

val structural_hash : t -> int
(** Deterministic fingerprint of the full program structure — every
    statement (recursively), thread ids, barriers, roots.  Any change
    to the program's shape changes the hash (up to 63-bit collisions),
    making it a sound cache key for derived artifacts such as static
    certificates. *)

(** Statement-list combinators used by the workload generators. *)

val locked : Lockid.t -> stmt list -> stmt list
(** [locked m body] is [Acquire m; body; Release m]. *)

val txn : stmt list -> stmt list
(** Wraps [body] in transaction markers. *)

val reads : Var.t -> int -> stmt list
val writes : Var.t -> int -> stmt list
val repeat : int -> stmt list -> stmt list
