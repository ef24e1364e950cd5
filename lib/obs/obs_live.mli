(** Live telemetry bus: streams in-flight {!Obs_snapshot} merges as
    delta-encoded NDJSON in the versioned [ftrace.live/1] schema.

    Roles:
    - the {e driver} creates the bus ({!create}) and one {!pub} per
      worker ({!publisher});
    - each {e worker} publishes every [tick_events] events through
      {!pub_chunk} — the one publish shape: the driver walks its event
      source in [tick_events] windows and publishes between windows,
      at zero per-event cost.  It flattens its own counters into an
      immutable partial and publishes it with one atomic store (it
      never touches the sink or another worker's state), and folds
      completed detector instances in with {!pub_fold};
    - the {e collector} merges the latest partials and appends one
      record per elapsed period — the calling thread itself for
      sequential runs ([~standalone:true] publishes), a dedicated
      domain for parallel regions ({!with_collector}).

    Stream layout: a header line ([schema]/[source]/[tool]/
    [total_events]/[period_s]/[tick_events]/[host]), then records with
    monotone [seq] and [cum_events], per-record counter deltas under
    ["d"], and gauges ([evps], [fast_frac], [imbalance], [heap_words],
    [workers]); finally one [{"final":true}] record whose ["cum"]
    object carries the run's exact cumulative counters — the same
    fields the [ftrace.obs/2] [--metrics] export writes, so the stream
    can be cross-checked against it to the last integer.

    The disabled handle costs one branch at loop-selection time and
    nothing per event ({!pub_chunk} is [None], so drivers make one
    plain call over the whole source). *)

type t
type pub

val disabled : t
val is_enabled : t -> bool

val open_sink : string -> (out_channel * bool, string) result
(** Parse a [--live] sink spec: ["-"] is stdout (not owned),
    ["fd:N"] wraps an inherited descriptor, anything else is a file
    path (truncated).  Returns the channel and whether the caller owns
    (must close) it. *)

val create :
  ?period:float ->
  ?tick_events:int ->
  ?total:int ->
  ?source:string ->
  ?tool:string ->
  sink:out_channel ->
  owns_sink:bool ->
  unit ->
  t
(** Open the bus and write the header line.  [period] (default 0.05s)
    gates record emission; [tick_events] (default 8192) is the
    per-worker publish granularity; [total] is the event count a
    finished run's [cum_events] reaches ([Driver.stream_events]: the
    trace length, more under the static plan, whose shards each count
    every non-access event), used by consumers for progress/ETA (0
    when unknown). *)

val publisher : t -> worker:int -> pub
(** A per-worker publisher handle.  Call once per worker, before its
    hot loop; on a disabled bus this is free and yields a disabled
    [pub]. *)

val pub_chunk :
  ?standalone:bool ->
  ?rules:(unit -> (string * int) list) ->
  ?vars:(unit -> (string * int) list) ->
  pub ->
  current:(unit -> Obs_snapshot.counts) ->
  (int * (unit -> unit)) option
(** The worker's publish hook, or [None] when disabled (so the driver
    keeps its uninstrumented loop — the one-branch idiom): returns
    [(tick_events, publish)].  The driver walks its event source in
    windows of [tick_events] positions and calls [publish] between
    windows, so the hot loop runs the exact uninstrumented event
    handler — the enabled-mode cost lives entirely off the per-event
    path.  [current] reads the worker's {e own} live counters of the
    in-flight detector instance (same domain, so the read is safe).
    [rules] likewise reads the instance's own rule tally, and [vars]
    its twin for the profiler's hot-variable standings
    ([Obs_prof.hot_alist]), surfaced as the records' [top_vars]
    field; both are invoked at publish granularity only.
    [standalone] makes each publish also drive collection (for
    sequential runs with no collector domain). *)

val pub_fold :
  ?vars:(string * int) list ->
  pub ->
  counts:Obs_snapshot.counts ->
  rules:(string * int) list ->
  unit
(** Fold a {e completed} detector instance into the worker's
    accumulated counts (and rule and hot-variable standings), and
    republish.  Rules are only read here — at completion, on the
    owning domain — never mid-item. *)

val set_phase : t -> string -> unit
(** Change the driver phase; emits a record immediately on change. *)

val set_base : t -> Obs_snapshot.counts -> unit
(** Counters not owned by any worker (the stealing prefix's timeline
    replay and routed-out eliminated accesses); added to every merge. *)

val with_collector : t -> (unit -> 'a) -> 'a
(** Run [f] with a dedicated collector domain merging and emitting at
    the bus period; joins it before returning.  On a disabled bus just
    runs [f]. *)

val finish :
  ?top_vars:(string * int) list ->
  t ->
  wall:float ->
  fields:(string * int) list ->
  rules:(string * int) list ->
  warnings:int ->
  unit
(** Emit the final record from the run's merged result counters
    ([Stats.fields_alist]-shaped), guaranteeing the stream's cumulative
    totals equal the [--metrics] export exactly.  Idempotent; the bus
    stops emitting afterwards. *)

val close : t -> unit
(** Flush, and close the sink if owned.  The CLI owns the lifecycle;
    the driver never closes. *)
