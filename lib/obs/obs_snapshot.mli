(** Immutable point-in-time view of a running analysis — the unit the
    live telemetry bus ({!Obs_live}) publishes, merges and
    delta-encodes into [ftrace.live/1] records.

    [ft_obs] sits below the detector library, so the counter set is a
    plain record ({!counts}) the driver fills from its [Stats.t]; the
    arithmetic is exact and associative ([sub (add a b) a = b]
    field-wise), which is what makes the delta encoding loss-free:
    summing a stream's deltas reproduces the cumulative counters. *)

type counts = {
  events : int;
      (** events the detector(s) processed so far (excludes
          eliminated accesses, which never reach a detector) *)
  reads : int;
  writes : int;
  syncs : int;
  eliminated : int;  (** accesses skipped by static elimination *)
  epoch_ops : int;   (** O(1) epoch fast-path operations *)
  vc_ops : int;      (** O(n) vector-clock slow-path operations *)
  vc_ops_skipped : int;
      (** those of [vc_ops] that a no-op sync rule did in O(1) *)
  state_words : int; (** shadow-state words currently allocated *)
  warnings : int;
}

val zero : counts
val add : counts -> counts -> counts
val sub : counts -> counts -> counts

type worker = {
  w_id : int;
  w_events : int;  (** events this worker has processed so far *)
}

type t = {
  at : float;   (** seconds since the bus started *)
  phase : string;
      (** driver phase: ["prefix"], ["analyze"], ["merge"], ["done"] *)
  counts : counts;
  rules : (string * int) list;
      (** cumulative per-rule hits, descending; [[]] when the
          publisher skipped them (mid-item partials) *)
  vars : (string * int) list;
      (** hot-variable standings from the shadow-state profiler
          ([Obs_prof.hot_alist]), descending; [[]] unless profiling *)
  workers : worker array;  (** ascending by [w_id] *)
  heap_words : int;  (** GC heap words at snapshot time; 0 unsampled *)
}

val empty : t

val merge_rules : (string * int) list list -> (string * int) list
(** Merge rule alists by name (hits add), sorted descending by count. *)

val merge : at:float -> phase:string -> t list -> t
(** Merge worker partials into one run-wide snapshot: counter fields
    and rule hits add, worker arrays concatenate (sorted by id),
    [heap_words] takes the max; [at]/[phase] come from the caller (the
    collector owns the clock and the phase, workers don't). *)

(** {2 Derived figures} *)

val events_seen : t -> int
(** [counts.events + counts.eliminated] — progress against the trace
    length (skipped accesses are progress too). *)

val progress : total:int -> t -> float
(** Fraction of the trace accounted for, clamped to [0..1] ([total]
    is the trace length; static-plan broadcast replays can overshoot
    and are clamped). *)

val eta : total:int -> t -> float
(** Estimated seconds to completion from the mean rate so far; [0.]
    when unknown or complete. *)

val fast_path_frac : t -> float
(** [epoch_ops / (epoch_ops + vc_ops)] — the paper's epoch-fast-path
    share; [0.] before any operation. *)

val imbalance : t -> float
(** Max-over-mean of per-worker event counts (same statistic as
    [Shard.imbalance_of_counts]); [1.0] when unknown or balanced. *)

val rate : prev:t -> t -> float
(** Events per second between two snapshots ([events_seen] delta over
    [at] delta); [0.] for a non-positive interval. *)
