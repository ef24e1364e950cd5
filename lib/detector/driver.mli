(** Runs detectors over traces and measures their cost.

    [replay] measures the cost of streaming the trace through an empty
    loop — the stand-in for "uninstrumented execution time" in the
    slowdown ratios of Tables 1 and 3 (our events are already recorded,
    so the only base cost is the replay itself).

    Observability: both drivers thread the {!Config.t}'s [obs] handle
    through the run — phase spans ([plan] / [parallel.region] /
    [shard-N] / [merge] for the parallel driver, [analyze] for the
    sequential one), periodic GC samples, and registry counters — and
    {!write_metrics} dumps the whole document as JSON.  With the
    default {!Obs.disabled} handle the event loop is selected
    uninstrumented before entry, so a disabled run pays nothing per
    event. *)

type shard_info = {
  shard_id : int;
      (** static plan: the shard; stealing plan: the {e worker} *)
  shard_accesses : int;   (** read/write events it analyzed *)
  shard_syncs : int;
      (** broadcast sync events it replayed (0 under the stealing
          plan — the shared timeline replaced the replay) *)
  shard_wall : float;     (** wall seconds inside its task(s) *)
  shard_warnings : int;
}
(** Per-shard (static) or per-worker (stealing) accounting of a
    {!run_parallel} region, derived from the per-shard {!Stats} (no
    extra trace pass). *)

type result = {
  tool : string;
  warnings : Warning.t list;
  witnesses : Witness.t list;
      (** happens-before witnesses for the warnings that have one
          (chronological, never longer than [warnings]; empty for
          detectors that keep no clocks) *)
  stats : Stats.t;
  cpu : float;
      (** CPU seconds in the detector; for parallel runs this is the
          process CPU clock, which on Linux sums across the region's
          domains — detector work, not wall x jobs. *)
  wall : float;  (** wall-clock seconds of the analysis region *)
  prefix_wall : float;
      (** wall seconds of the stealing plan's prefix (segmented
          routing + pipelined timeline build, see [Prefix]) — the
          Amdahl accounting the bench harness exports as
          [prefix_wall]/[prefix_frac]; [0.] for sequential and
          static-plan runs, which have no such phase *)
  shards : shard_info array;
      (** one entry per shard (static) or per worker (stealing) for
          {!run_parallel}; [[||]] for {!run} *)
  imbalance : float;
      (** {!Shard.imbalance_of_counts} over [shards]' access counts —
          max over mean, 1.0 = perfectly balanced; 1.0 for
          sequential runs.  Under work stealing this is the
          {e per-worker} figure the dynamic queue drives toward 1.0 *)
  plan_kind : Shard.kind;
      (** which parallel plan produced this result ({!Shard.Static}
          for sequential runs, degenerately) *)
  slots : int;
      (** shard work items the plan produced ([jobs] for static,
          [factor x jobs] for stealing, [1] for sequential) *)
}

val run : ?config:Config.t -> (module Detector.S) -> Trace.t -> result
(** Sequential analysis.  When the config carries a [static_elim]
    predicate, accesses to certified variables are skipped before the
    detector sees them (counted in [Stats.eliminated]); sync events
    are never skipped, so warnings and witnesses are byte-identical to
    an unfiltered run. *)

val run_packed :
  ?obs:Obs.t ->
  ?live:Obs_live.t ->
  ?prof:Obs_prof.t ->
  ?skip:(Var.t -> bool) ->
  Detector.packed ->
  Trace.t ->
  result
(** Feed a trace to an already-instantiated detector (the detector may
    carry state from earlier traces).  [obs], [live] and [prof]
    default to their disabled handles; {!run} passes its config's
    handles and [static_elim] predicate ([skip]).  With an enabled
    [live] the event loop carries a standalone telemetry ticker (the
    sequential run is its own collector) and the run ends with the
    stream's final cumulative record.  [prof] must be the {e same}
    handle the packed detector was instantiated with: the driver runs
    the end-of-run shadow census through it ({!Obs_prof.take_census})
    and feeds the live stream's [top_vars] standings from it. *)

val run_parallel :
  ?config:Config.t -> ?jobs:int -> ?plan:Shard.kind ->
  (module Detector.S) -> Trace.t -> result
(** Variable-sharded parallel analysis on OCaml 5 domains.

    Two plans (see {!Shard.kind}); the default is chosen per detector:

    {e Work stealing} (the default whenever the detector
    [shares_clocks] and the flight recorder is off): one sequential
    pass builds the immutable {!Sync_timeline} — per-thread
    checkpoints of every sync event's post-state, each clock stored
    as the entries the event raised plus periodic keyframes — and
    the trace's access
    events are split into [Shard.default_steal_factor x jobs]
    fine-grained items ([obj mod slots], LPT-sorted).  [jobs] workers
    pull items dynamically ({!Domain_pool.run_queue}); each item runs
    a fresh detector instance whose {!Clock_source} resolves
    clock/epoch/lockset lookups against the shared timeline.  This
    eliminates both causes of the original driver's anti-scaling: the
    [jobs] x O(sync·VC) broadcast replay (now one shared pass) and
    static hot-object imbalance (a hot item pins at most one worker).
    The timeline's build cost is folded into [stats], so merged
    totals stay comparable with {!run}'s ([events] = trace length).

    {e Static} (fallback for non-clock-sharing detectors —
    Goldilocks, Accordion — and for recorder-enabled runs; forceable
    with [?plan]): exactly [jobs] shards, each receiving its owned
    accesses plus a broadcast copy of every synchronization event
    replayed into a private sync state, one domain per shard.

    Under {e both} plans the merged warning {e and witness} lists are
    byte-identical — same variables, kinds, trace indices, prior
    epochs and witness clocks — to the sequential {!run}'s, for any
    detector whose per-variable analysis depends only on the
    sync-event prefix (all of ours; asserted over every built-in
    workload and adversarial hot-object traces in
    [test/test_parallel.ml] and [test/test_timeline.ml]).

    [jobs] defaults to {!default_jobs}; [jobs <= 1] analyzes on the
    calling domain only.  [elapsed]/[wall] are {e wall-clock} seconds
    (for the stealing plan including the serial timeline + plan
    prefix — the honest Amdahl accounting); [cpu] sums across
    domains.

    Load-balance accounting rides along for free: [shards] carries
    per-shard (static) or per-worker (stealing) access counts, wall
    time and warning counts, and [imbalance] summarizes them.  With
    observability enabled the run additionally records [prefix] (with
    [prefix.route] / [prefix.timeline]) / [parallel.region] /
    per-task / [merge] spans on one wall-clock timeline, plus
    [timeline.*], [shard.*] and [prefix.*] gauges — the latter making
    the serial-prefix fraction visible in the [ftrace.obs/1]
    document. *)

val default_jobs : unit -> int
(** The runtime's [Domain.recommended_domain_count ()]. *)

val prefix_frac : result -> float
(** [prefix_wall / wall] ([0.] for a zero-wall run): the measured
    serial-prefix fraction, the [s] of the Amdahl ceiling
    [1 / (s + (1-s)/jobs)] the bench harness derives per cell. *)

(** {2 Metrics export} *)

val result_json : ?source:string -> result -> Obs_json.t
(** The run section of the metrics document: tool, [source] (trace
    file or workload name), jobs, cpu/wall, imbalance, per-shard
    table, {!Stats.fields_alist} and the rule histogram. *)

val export_metrics : ?source:string -> obs:Obs.t -> result -> string
(** The complete [--metrics] JSON document ({!Obs_export.document}
    with the run section attached) as a string; schema
    ["ftrace.obs/1"], asserted by [test/test_obs.ml]. *)

val write_metrics :
  ?source:string -> obs:Obs.t -> path:string -> result -> unit
(** {!export_metrics} to a file. *)

val replay : ?repeat:int -> Trace.t -> float
(** Wall seconds (monotonic clock, {!Obs_clock}) for [repeat]
    (default 1) bare iterations of the trace, divided by [repeat].
    Previously measured with [Sys.time], whose ~1ms resolution
    swamped sub-millisecond replays. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and reports its CPU time in seconds. *)

val warning_count : result -> int
