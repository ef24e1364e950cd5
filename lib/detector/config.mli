(** Detector configuration.

    [granularity] selects the shadow-memory granularity of Section 4:
    fine (one state per field), coarse (one per object), or the
    adaptive refinement Section 5.1 sketches (coarse until a location
    warns, then fine for that object — implemented by FastTrack; the
    other tools treat [Adaptive] as coarse).

    The two ablation flags switch off individual FastTrack design
    choices so the benchmarks can quantify their contribution:
    - [same_epoch_fast_path]: the [FT READ/WRITE SAME EPOCH] O(1)
      shortcut (Figure 5's first line of each handler);
    - [read_demotion]: rule [FT WRITE SHARED]'s reset of the read
      history to [⊥e], which switches a read-shared variable back into
      cheap epoch mode after a write.

    [obs] is the observability handle the driver threads through the
    run (span timeline and GC sampler — see {!Obs}).
    It defaults to {!Obs.disabled}: instrumentation is compiled in
    but off, and the disabled path costs one closure selection
    outside the event loop (overhead budget: ≤5%% on the [parallel]
    bench, see DESIGN.md §Observability).  Observability never
    changes analysis results — warnings are identical with it on or
    off (asserted in [test/test_obs.ml]).

    [recorder] is the per-variable flight recorder
    ({!Obs_recorder}) threaded through the detectors exactly like
    [obs]: default {!Obs_recorder.disabled} (one branch per event, no
    allocation), enabled by [ftrace analyze --explain]/[--report] so
    race reports can show the recent access history of the racy
    location.  Like [obs], it never changes analysis results
    (asserted in [test/test_report.ml]).

    [live] is the live telemetry bus ({!Obs_live}) the drivers feed
    with in-flight snapshots: default {!Obs_live.disabled} (the hot
    loop is selected uninstrumented, same one-branch idiom as [obs]),
    enabled by [ftrace analyze --live].  Like the other observability
    handles it never changes analysis results — warnings and witnesses
    are byte-identical with it on or off (asserted in
    [test/test_live.ml]).

    [prof] is the shadow-state profiler ({!Obs_prof}): default
    {!Obs_prof.disabled} (detectors cache one [prof_on : bool] and pay
    a single branch per access), enabled by [ftrace analyze --profile]
    and [ftrace profile].  Enabled, the detectors attribute each
    access's Figure 5 rule to the variable's cell, tag read-history
    inflation/deflation, sample access timings, and register a
    shadow-state census walker the driver runs at end of run.  Like
    the other observability handles it never changes analysis results
    — warnings and witnesses are byte-identical with it on or off
    (asserted in [test/test_prof.ml]).

    [sync_source] selects the detector's {!Clock_source} mode: [None]
    (the default, and the only sensible value for sequential runs)
    gives each detector instance a private live {!Vc_state};
    [Some timeline] makes clock/epoch/lockset lookups resolve against
    the shared read-only {!Sync_timeline} instead, which is how the
    work-stealing parallel driver eliminates the per-shard sync
    replay.  Only [Driver.run_parallel] should set it.

    [static_elim] is the sound check-elimination hook: when set, the
    drivers skip every access event whose variable satisfies the
    predicate (counting it in [Stats.eliminated]) before the detector
    sees it.  The intended predicate is [Static.eliminator] over the
    program the trace was generated from — a certified variable cannot
    race under {e any} interleaving, and access events never modify
    the sync state ([C]/[L]), so skipping them leaves warnings and
    witnesses byte-identical (asserted in [test/test_static.ml]).
    Contrast the {e dynamic} prefilters of Section 5.2, which footnote
    6 concedes may drop an access later involved in a race.  Default
    [None]. *)

type sampling = {
  rate : float;
      (** expected fraction of accesses (or, for the period sampler,
          of whole periods) outside the per-variable burn-in budget
          that are analyzed; [1.0] makes the samplers byte-identical
          to FastTrack *)
  budget : int;
      (** per-variable burn-in: the first [budget] accesses to each
          variable are always analyzed ("O(1) samples per variable") *)
  seed : int;
      (** hashed into every decision via {!Prng.mix3}; decisions are a
          pure function of [(seed, var, per-var ordinal)], so every
          execution plan produces the same warning set *)
}
(** Sampling-tier policy ([lib/sampling]); ignored by every other
    detector. *)

val default_sampling : sampling
(** rate 0.02, budget 3, seed 1 — the defaults the A9 CI gate holds
    at.  The sampling detectors are this coin in front of plain
    FastTrack: the burn-in buys full recall of the Table 1 races
    within the gate's seeded reruns, and the low rate keeps moldyn
    throughput over 3x sequential FastTrack.  [rate] must lie in
    [[0, 1]] and [budget] must be [>= 0] ([Sampler.create] raises
    otherwise; [ftrace analyze] exits 1 naming the flag). *)

type t = {
  granularity : Shadow.mode;
  same_epoch_fast_path : bool;
  read_demotion : bool;
  sampling : sampling;
  obs : Obs.t;
  recorder : Obs_recorder.t;
  live : Obs_live.t;
  prof : Obs_prof.t;
  sync_source : Sync_timeline.t option;
  static_elim : (Var.t -> bool) option;
}

val default : t
(** Fine granularity, all optimizations on, observability, the flight
    recorder, the live bus and the profiler off, live sync state. *)

val with_sampling : sampling -> t -> t
val with_obs : Obs.t -> t -> t
val with_recorder : Obs_recorder.t -> t -> t
val with_live : Obs_live.t -> t -> t
val with_prof : Obs_prof.t -> t -> t
val with_sync_source : Sync_timeline.t -> t -> t
val with_static_elim : (Var.t -> bool) -> t -> t

val coarse : t
val adaptive : t
