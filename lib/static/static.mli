(** Ahead-of-run (static) race analysis over the {!Program} DSL.

    DSL programs are straight-line per thread: every [Fork]/[Join]/
    [Barrier_wait] statement and every lock acquisition is visible at
    construction time, so a flow-sensitive walk over the statement
    arrays can prove — before a single event is scheduled — that many
    variables cannot race under {e any} interleaving the {!Scheduler}
    can produce.  Each proof is a machine-checkable {!certificate}; the
    dynamic drivers use {!eliminator}, which replays the certificates
    before it trusts them, to skip the certified accesses with zero
    coverage loss (contrast Section 5.2's dynamic prefilters, which
    footnote 6 concedes may drop an access later involved in a race).

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
    change, and a site is one packed int.  Threads are walked in
    ascending tid order, so a variable's sites arrive in node order and
    a repeated site sits in its node's run at the end: the walk counts
    an access with one int-keyed table lookup (none when it repeats the
    previous access's variable and site), and one walk over the
    statements is the only traversal of the bodies.

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
    paths: any chain {!check_certificate} accepts is valid.

    {2 Epoch-shaped certificates}

    FastTrack's insight (Section 3: on a race-free variable the writes
    are totally ordered, so one epoch stands in for a vector clock)
    applied to proofs.  A variable's sites collapse to write nodes and
    read-only nodes.  The write nodes are sorted with "[a] reaches [b]"
    as the comparator and each consecutive pair must reach; each read
    is placed by binary search after the last write reaching it and
    must reach the next write.  When every check passes, transitivity
    orders every conflicting pair; when every conflicting pair is
    ordered, so is every pair of these nodes (same-thread pairs by
    program order), the comparator is a total preorder and every check
    passes — so the shape decides exactly the verdicts the pairwise
    definition gives, cyclic skeletons included (a cycle's nodes reach
    each other, so any order among them passes).  The certificate
    ({!order}) is that shape with a chain per adjacency: at most
    [2 * nodes] chains instead of one per conflicting pair, cheap
    enough that {!eliminator} replays every certificate before it
    skips an access.

    {2 Async-finish tier}

    Programs using [Async]/[Finish] additionally get a series-parallel
    decomposition ({!Dpst}): [Async u] ends a segment like a fork and
    opens a parallel branch; finish-scope entry and exit each end a
    segment.  The tree answers may-happen-in-parallel in O(1)
    ({!mhp}), enabling two task-tier verdicts — [Task_local] (the one
    accessing thread is an async-spawned task) and [Sp_ordered] (every
    conflicting site pair is series-ordered by the tree, certified by
    the epoch shape under the series order) — whose certificates
    {!check_certificate} replays with an independent parent-walk
    decision procedure ({!Dpst.series_check}).  Four
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

type chain = int array
(** The inter-thread edges of a witness path, as indices into the
    skeleton's [sk_edges] in path order.  Consecutive edges are glued by
    program order: an edge's [e_to] and the next edge's [e_from] share a
    tid with non-decreasing segments. *)

type link = {
  k_read : node;  (** a node with read sites and no write site *)
  k_after : int;
      (** index in [o_writes] of the write ordered just before it; -1
          if it precedes every write *)
  k_in : chain;   (** from that write to [k_read] ([[||]] if none) *)
  k_out : chain;  (** from [k_read] to the next write ([[||]] if none) *)
}

type order = {
  o_writes : node array;
      (** every write node (a node with some write site) once, in an
          order where each reaches the next *)
  o_steps : chain array;  (** [o_steps.(i)]: [o_writes.(i)] to [o_writes.(i + 1)] *)
  o_reads : link array;   (** every read-only node once *)
}
(** The epoch shape of an ordering proof: the writes of a race-free
    variable are totally ordered, and each read sits between the write
    before it and the write after it, so transitivity orders every
    conflicting pair with at most [2 * nodes] chains. *)

type certificate =
  | Cert_thread_local of Tid.t
  | Cert_task_local of Tid.t
  | Cert_read_only
  | Cert_lock_protected of Lockid.t
  | Cert_sp_ordered of order
      (** the epoch shape under the DPST's series order; its chains are
          empty, each adjacency is replayed by {!Dpst.series_check} *)
  | Cert_ordered of { c_barrier : bool; c_order : order }
      (** the epoch shape over skeleton paths; [c_barrier] says whether
          barrier edges were needed *)

type entry = {
  e_var : Var.t;
  e_verdict : verdict;
  e_cert : certificate option;  (** [None] iff [May_race] *)
  e_keys : int array;
      (** the variable's sites, packed and ascending (the order of
          [List.sort compare] on {!site}s); read them through {!sites} *)
  e_counts : int array;  (** accesses per site, parallel to [e_keys] *)
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
    edges), the decoding of site keys and an index of the entries by
    variable: built once by {!analyze}. *)

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
(** O(1).  [May_race] for variables the program never touches. *)

val certified : summary -> Var.t -> bool
(** True iff the verdict is not [May_race]. *)

val sites : summary -> entry -> site list
(** The entry's sites, decoded from its packed keys, in key order. *)

val eliminator : granularity:Var.granularity -> summary -> Var.t -> bool
(** The predicate the dynamic drivers skip accesses with.  Before it
    certifies anything it replays certificates with
    {!check_certificate}'s checker, once per distinct certificate, and
    it certifies no variable whose replay fails, so a skip rests on the
    checker and {!Dpst.series_check} alone.  Under [Fine] a variable
    passes iff its certificate replays; the answer comes from a
    two-level object/field byte table.  Under [Coarse] (shared
    per-object shadow state) a variable passes only if the {e merged}
    site set of its whole object is classified anew and that
    certificate replays — per-field certificates do not compose (e.g.
    an array with one thread-local field per thread is racy to a coarse
    detector). *)

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
    by site.  An ordering certificate must list every write node and
    every read-only node exactly once (coverage by shape), and every
    adjacency of the shape — consecutive writes, and each read with its
    neighbours — must hold: a chain of skeleton edges glued by program
    order, or a series order replayed on the DPST.  Linear in the
    certificate up to sorting its nodes. *)

(** {2 Rendering} *)

val verdict_name : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit
val pp_finding : Format.formatter -> finding -> unit
val pp_site : Format.formatter -> site -> unit
val pp_report : Format.formatter -> summary -> unit
(** The human-readable [ftrace lint] report. *)
