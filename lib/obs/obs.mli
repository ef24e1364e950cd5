(** Observability facade: one handle bundling a span sink
    ({!Obs_span}) and a GC sampler ({!Obs_gc}), with a single
    [enabled] guard.  The run's figures themselves live in one place,
    the driver's result record (the [run] section of the [--metrics]
    document); this handle only adds what the record cannot hold: the
    phase timeline and the heap samples.

    Everything is compiled in but {e off by default}: the pipeline
    threads {!disabled} (a shared, inert handle) unless the caller
    opts in with {!create}.  Every operation on a disabled handle is
    one branch, and the hooks are written so callers can select an
    uninstrumented closure {e once}, outside the loop (see the
    driver's analysis unit).

    Parallel shards share the handle: spans and GC samples from all
    shards go to the (mutex-protected) sink, so the timeline stays
    global. *)

type t

val disabled : t
(** The inert handle; all operations are no-ops. *)

val create : ?gc_every:int -> ?heap_walk:bool -> unit -> t
(** A fresh enabled handle.  [gc_every] is the period of the GC
    sampler's periodic samples (default 65536 events, see
    {!gc_window}).  [heap_walk] (default [false]) makes the end-of-run
    sample a [Gc.stat] heap walk that fills in [live_words]: the
    Table 3 cross-check, opt-in because the walk costs ~40–50 ms on a
    Table 1 heap, many times the analysis it would observe. *)

val is_enabled : t -> bool

(** {2 Components (enabled handles only; [None] when disabled)} *)

val spans : t -> Obs_span.t option
val gc : t -> Obs_gc.t option

(** {2 Guarded operations} *)

val span :
  ?attrs:(string * Obs_span.attr) list -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] is [f ()] when disabled, a recorded
    {!Obs_span.with_} when enabled. *)

val record_span :
  t -> name:string -> start:float -> duration:float ->
  ?attrs:(string * Obs_span.attr) list -> unit -> unit

val now : t -> float
(** Seconds since the span sink's epoch; [0.] when disabled. *)

val gc_sample : t -> unit
(** Quick GC sample at a phase boundary. *)

val gc_sample_final : t -> unit
(** End-of-run GC sample ({!Obs_gc.sample_final}): a heap walk only
    when the handle was created with [~heap_walk:true]. *)

val gc_window : t -> (int * (unit -> unit)) option
(** The periodic GC sample in the live publisher's shape
    ([Obs_live.pub_chunk]): [(gc_every, sample)], or [None] when
    disabled.  The driver walks its event source in windows and calls
    [sample] at every position that is a multiple of [gc_every], so
    no GC hook runs per event. *)
