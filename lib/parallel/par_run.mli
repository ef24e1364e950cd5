(** Orchestration of a sharded parallel analysis region.

    [Par_run] owns the generic pipeline — run one task per shard on
    its own domain ({!Domain_pool}), time the whole region on the
    monotonic wall clock ({!Obs_clock.wall_time}) — while staying
    agnostic of what an "analysis" is: the caller's task typically
    drives {!Trace.iter_shard} over the
    shared, immutable trace (zero-copy: no per-domain materialization
    and no serial splitting step ahead of the parallel region, which
    would bound speedup by Amdahl's law).  This keeps [ft_parallel]
    free of any dependency on the detector framework, so the detector
    library can depend on it. *)

val map : ?obs:Obs.t -> jobs:int -> (shard:int -> 'r) -> 'r array * float
(** [map ~jobs f] runs [f ~shard] for every [shard] in
    [0 .. max 1 jobs - 1], shard 0 on the calling domain and the rest
    on fresh domains, and returns the results in shard order together
    with the wall-clock seconds of the whole region.

    With an enabled [obs] (default {!Obs.disabled}), the whole region
    — domain spawn, all shard tasks, joins — is recorded as one
    ["parallel.region"] span carrying a [jobs] attribute; the caller's
    tasks typically record their own per-shard spans inside it. *)

val queue :
  ?obs:Obs.t ->
  jobs:int ->
  tasks:int ->
  (worker:int -> task:int -> 'a) ->
  ('a array * int list array) * float
(** {!Domain_pool.run_queue} wrapped like {!map}: the whole
    work-stealing region is one ["parallel.region"] span (with [jobs]
    and [tasks] attributes) and is timed on the monotonic wall clock.
    Returns the per-task results, the per-worker claimed task lists,
    and the region's wall seconds. *)
