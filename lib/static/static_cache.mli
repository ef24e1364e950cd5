(** Process-level memo for {!Static.analyze} keyed by
    [(workload, scale, Program.structural_hash)].

    The ahead-of-run analysis is a pure function of the program, so
    the summary (certificates, skeleton, DPST, lint findings) can be
    reused whenever the {e same program} comes back.  Repeated
    [--static-elim] runs, the elimination bench's per-workload
    measurement loops, and [ftrace lint] all funnel through here so
    the certificates are derived once and replayed thereafter.

    The structural hash in the key is the cache's invalidation story:
    the program is always built and fingerprinted, so a stale summary
    can never be served for a program whose structure changed — even
    if a workload generator misbehaves and produces different programs
    for the same [(workload, scale)] pair (e.g. one reading ambient
    state the name does not capture).  What a hit saves is the
    analysis itself (skeleton labels, classification, DPST labeling),
    which dwarfs program construction. *)

val analyze :
  workload:string -> scale:int -> (unit -> Program.t) -> Static.summary
(** [analyze ~workload ~scale program] builds [program ()], hashes it,
    and returns the cached summary for [(workload, scale, hash)],
    running {!Static.analyze} only on the first request.  Hits return
    the {e same} summary value (physical equality), so downstream
    eliminator tables can be rebuilt cheaply but consistently. *)

val stats : unit -> int * int
(** [(hits, misses)] since process start (or the last {!clear}). *)

val clear : unit -> unit
(** Drop every cached summary and zero the counters (tests). *)
