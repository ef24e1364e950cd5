(** Ahead-of-run (static) race analysis over the {!Program} DSL.

    DSL programs are straight-line per thread: every [Fork]/[Join]/
    [Barrier_wait] statement and every lock acquisition is visible at
    construction time, so a flow-sensitive walk over the statement
    arrays can prove — before a single event is scheduled — that many
    variables cannot race under {e any} interleaving the {!Scheduler}
    can produce.  Each proof is a machine-checkable {!certificate}; the
    dynamic drivers use {!eliminator} to skip the certified accesses
    with zero coverage loss (contrast Section 5.2's dynamic prefilters,
    which footnote 6 concedes may drop an access later involved in a
    race).

    {2 Abstract domain}

    Each thread body is cut into {e segments}: maximal statement runs
    containing no inter-thread ordering point.  [Fork u] ends its
    segment (the fork edge leaves the segment containing the fork);
    [Join u] and [Barrier_wait b] begin a new one (their edges arrive
    at the segment after the ordering point).  Program points are
    [(tid, segment)] {!node}s; the {e static happens-before skeleton}
    is the graph over nodes with

    - [Po] edges [(t, i) -> (t, i + 1)] (program order, implicit),
    - [Fork_edge] [(t, seg of the fork) -> (u, 0)],
    - [Join_edge] [(u, last seg of u) -> (t, seg after the join)], and
    - [Barrier_edge] round-[k] cross edges
      [(t1, seg before t1's k-th wait) -> (t2, seg after t2's k-th
      wait)] for every participant pair — emitted only when the
      barrier's wait structure is deterministic (exactly [parties]
      participating threads, all with equal wait counts), because only
      then does the k-th release provably pair the k-th waits.

    Alongside the skeleton the walk tracks the held lockset at every
    program point (re-entrant, like the Scheduler) and collapses the
    accesses of each variable into {!site}s keyed by
    [(tid, segment, kind, lockset)].  Locksets are interned when they
    change, and a site is one packed int, so the walk counts an access
    with at most two int-keyed table lookups (none when it repeats the
    previous access's variable and site).

    {2 Reachability by vector clocks}

    Each of the two graphs (fork/join edges only, and with barrier
    edges) labels every node with an int clock over threads: entry
    [i] of node [v]'s clock is the highest segment of thread [i] that
    reaches [v].  Program order glues a thread's segments, so [a]
    reaches [b] iff [clock(b)[tid a] >= seg a] — one comparison
    ({!reaches}), as FastTrack replaces happens-before reachability by
    clock comparisons.  One Kahn pass in topological order computes the
    clocks; skeletons can be cyclic ([Join_before_fork], mutual joins),
    and the nodes that pass leaves unvisited are relaxed again until
    nothing changes.  Beside each entry the label keeps the edge that
    last raised it.  A certificate's hop chain from [a] to [b] follows
    these raisers for [a]'s thread back from [b] to the first node of
    [a]'s thread at or after [a]; a raise needs a strict increase, so
    the chains are loop-free.  Hop chains are witnesses, not shortest
    paths: any chain {!check_certificate} accepts is valid.  Each
    variable's sites collapse to nodes before pairing, the verdict is
    decided by clock comparisons, and only the emitted verdict's
    certificate is built.

    {2 Async-finish tier}

    Programs using [Async]/[Finish] additionally get a series-parallel
    decomposition ({!Dpst}): [Async u] ends a segment like a fork and
    opens a parallel branch; finish-scope entry and exit each end a
    segment.  The tree answers may-happen-in-parallel in O(1)
    ({!mhp}), enabling two task-tier verdicts — [Task_local] (the one
    accessing thread is an async-spawned task) and [Sp_ordered] (every
    conflicting site pair is series-ordered by the tree) — whose
    certificates {!check_certificate} replays with an independent
    parent-walk decision procedure ({!Dpst.series_check}).  Four
    structure lints ride along: escaped asyncs, finish scopes that
    provably never close, explicit joins of tasks, and unbounded task
    fanout. *)

type node = { n_tid : Tid.t; n_seg : int }

type edge_kind =
  | Po
  | Fork_edge
  | Join_edge
  | Barrier_edge of { barrier : int; round : int }

type edge = { e_from : node; e_to : node; e_kind : edge_kind }

type skeleton = {
  sk_segs : (Tid.t * int) list;
      (** segment count per thread, ascending tid *)
  sk_edges : edge list;  (** inter-thread edges only ([Po] is implicit) *)
}

type site = {
  s_tid : Tid.t;
  s_seg : int;
  s_write : bool;
  s_locks : Lockid.t list;  (** locks held at the access, sorted *)
  s_count : int;            (** accesses collapsed into this site *)
}

(** Verdicts, strongest first; every verdict except [May_race] carries
    a certificate proving no interleaving can race on the variable. *)
type verdict =
  | Thread_local of Tid.t     (** one thread touches it *)
  | Task_local of Tid.t
      (** one thread touches it, and that thread is an async task *)
  | Read_only                 (** no write anywhere *)
  | Lock_protected of Lockid.t
      (** some lock is held at every access site *)
  | Sp_ordered
      (** all conflicting site pairs series-ordered by the DPST *)
  | Fork_join_ordered
      (** all conflicting site pairs ordered by fork/join edges alone *)
  | Barrier_phased
      (** ordered, but some pair needs a barrier edge *)
  | May_race                  (** no proof found — instrument it *)

(** One inter-thread step of an ordering proof.  Consecutive hops are
    glued by program order: [h_to] and the next hop's [h_from] share a
    tid with non-decreasing segments. *)
type hop = { h_from : node; h_to : node; h_kind : edge_kind }

type ordered_pair = {
  op_before : node;
  op_after : node;
  op_hops : hop list;  (** inter-thread edges of the witness path *)
}

type sp_pair = { sp_before : node; sp_after : node }
(** A conflicting site pair with [sp_before] series-ordered first in
    the DPST's left-to-right order. *)

type certificate =
  | Cert_thread_local of Tid.t
  | Cert_task_local of Tid.t
  | Cert_read_only
  | Cert_lock_protected of Lockid.t
  | Cert_sp_ordered of { c_sp_pairs : sp_pair list }
      (** one series-ordered witness per conflicting cross-thread site
          pair, replayed against the DPST *)
  | Cert_ordered of { c_barrier : bool; c_pairs : ordered_pair list }
      (** one witness path per conflicting cross-thread site pair;
          [c_barrier] says whether barrier edges were needed *)

type entry = {
  e_var : Var.t;
  e_verdict : verdict;
  e_cert : certificate option;  (** [None] iff [May_race] *)
  e_sites : site list;
  e_accesses : int;
}

(** {2 Linter} *)

type finding_kind =
  | Release_without_hold of Lockid.t
  | Wait_without_monitor of Lockid.t
  | Lock_never_released of Lockid.t
  | Unknown_barrier of int
  | Barrier_party_mismatch of { barrier : int; parties : int; participants : int }
  | Barrier_round_mismatch of { barrier : int }
  | Join_of_unknown of Tid.t
  | Join_before_fork of Tid.t
      (** a thread joins [u] before (in its own program order) forking it *)
  | Duplicate_fork of Tid.t
  | Lock_order_cycle of { locks : Lockid.t list }
      (** the locks of one strongly connected component of the
          held→acquired lock-order graph (sorted ascending): at least
          two threads acquire them in conflicting orders, so an
          interleaving can deadlock.  Single-thread order inversions
          are not reported — one thread's acquisitions are sequential
          and cannot deadlock alone. *)
  | Async_escapes_finish of Tid.t
      (** the task is spawned outside any finish scope by a spawner
          with no enclosing scope of its own, so no finish ever joins
          it *)
  | Finish_never_closed of { owner : Tid.t; task : Tid.t }
      (** a task (transitively) registered with one of [owner]'s
          finish scopes joins [owner] itself: the scope provably never
          closes (guaranteed deadlock) *)
  | Join_of_task of Tid.t
      (** explicit [Join] of an async-spawned task — finish scopes own
          task joins; mixing tiers on one thread is a smell *)
  | Unbounded_task_fanout of { tid : Tid.t; count : int; limit : int }
      (** a single thread spawns more than [limit] sibling tasks *)

type finding = {
  f_tid : Tid.t option;  (** offending thread, if thread-local *)
  f_kind : finding_kind;
}

type labels
(** The skeleton labelled with vector clocks (with and without barrier
    edges) and the variables' interned site keys: built once by
    {!analyze}, read by {!reaches} and {!eliminator}. *)

type summary = {
  threads : int;
  skeleton : skeleton;
  sp : Dpst.t option;
      (** the labeled series-parallel decomposition; [Some] iff the
          program uses the async-finish tier *)
  entries : entry list;  (** ascending {!Var.compare} *)
  findings : finding list;
  total_accesses : int;
  certified_accesses : int;
  labels : labels;
}

val fanout_limit : int
(** Sibling-task count per spawner above which
    [Unbounded_task_fanout] fires. *)

val analyze : Program.t -> summary

(** {2 Queries} *)

val verdict_of : summary -> Var.t -> verdict
(** [May_race] for variables the program never touches. *)

val certified : summary -> Var.t -> bool
(** True iff the verdict is not [May_race]. *)

val eliminator : granularity:Var.granularity -> summary -> Var.t -> bool
(** The predicate the dynamic drivers skip accesses with.  Under
    [Fine] a variable passes iff certified.  Under [Coarse] (shared
    per-object shadow state) a variable passes only if the {e merged}
    site set of its whole object is itself certified — per-field
    certificates do not compose (e.g. an array with one thread-local
    field per thread is racy to a coarse detector). *)

val reaches : summary -> barriers:bool -> node -> node -> bool
(** [reaches s ~barriers a b]: does a path lead from [a] to [b] in the
    skeleton (reflexively; over fork/join edges alone, or also over
    barrier edges)?  One clock comparison.  Raises [Invalid_argument]
    for a node outside the skeleton. *)

val elimination_ratio : summary -> float
(** certified accesses / total accesses ([0.] when no accesses). *)

val mhp : summary -> node -> node -> bool
(** May the two program points run in parallel?  Same-thread points
    never do; distinct-thread points are answered in O(1) from the
    DPST labeling when the program has a task tier, and conservatively
    [true] otherwise.  (An answer of [false] is a proof; [true] is
    only the absence of one.) *)

val access_segments : Program.t -> (Tid.t * int array) list
(** Per thread, the segment id of each of its accesses in statement
    order — the bridge from "the k-th access event of thread t in a
    trace" to a {!node} (and hence to {!mhp} queries).  Mirrors the
    walk's segment discipline exactly. *)

val check_certificate : summary -> entry -> (unit, string) result
(** Replays a certificate against the entry's sites and the skeleton:
    thread-locality/read-onlyness/lock membership are re-verified site
    by site; ordering certificates must cover {e every} conflicting
    cross-thread site pair with a hop chain whose edges all belong to
    the skeleton and whose hops are glued by program order. *)

(** {2 Rendering} *)

val verdict_name : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit
val pp_finding : Format.formatter -> finding -> unit
val pp_site : Format.formatter -> site -> unit
val pp_report : Format.formatter -> summary -> unit
(** The human-readable [ftrace lint] report. *)
