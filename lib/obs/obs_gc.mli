(** Periodic GC/heap sampling.

    Samples are cheap ([Gc.quick_stat] — no heap walk).  The driver
    takes one every [every] events at window boundaries of the
    sequential run's walk (nothing runs per event), one at each
    explicit {!sample_now}, and one at the end of the run
    ({!sample_final}).

    The heap walk is opt-in ([create ~heap_walk:true], [ftrace
    analyze --heap-walk]): only then is the final sample a [Gc.stat],
    which finishes a major cycle and walks the whole heap for
    [live_words]: ~40–50 ms per run with the 16 Table 1 traces
    resident (2-core x86-64 host), against a few ms of analysis.
    That walk gives the independent cross-check for the
    paper's Table 3 memory numbers ([Stats.peak_words] counts shadow
    words by hand; the GC's live words bound it from above). *)

type sample = {
  at : float;              (** wall seconds since the sampler's epoch *)
  minor_words : float;
  major_words : float;     (** cumulative allocation, words *)
  heap_words : int;        (** major heap size *)
  top_heap_words : int;
  live_words : int;        (** 0 unless [full] *)
  minor_collections : int;
  major_collections : int;
  full : bool;             (** the heap walk ran: [live_words] is
                               meaningful *)
}

type t

val create : ?every:int -> ?heap_walk:bool -> unit -> t
(** [every] is the period, in events, of the driver's periodic samples
    (default 65536).  [heap_walk] (default [false]) makes
    {!sample_final} walk the heap. *)

val every : t -> int

val sample_now : t -> unit
(** Take a quick sample immediately (phase boundaries). *)

val sample_final : t -> unit
(** End-of-run sample: a [Gc.stat] heap walk (sets [live_words] and
    [full]) when the sampler was created with [~heap_walk:true], else
    a quick sample. *)

val samples : t -> sample list
(** Chronological. *)

val to_json : t -> Obs_json.t
