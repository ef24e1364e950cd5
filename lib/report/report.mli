(** Enriched race reports: warnings + happens-before witnesses +
    provenance, rendered as the [--explain] text and the
    [ftrace.report/1] JSON document.

    A {!Warning.t} says {e that} two accesses raced; a {!Witness.t}
    (captured by the detector at the instant the race fired) says
    {e why} — the two access epochs and the vector-clock component
    proving them unordered.  This module completes the picture with
    what neither carries, reconstructed from the trace after the run:

    - the {b first access's trace index}: FastTrack's shadow state
      stores only the access's epoch [c@u], so the report replays the
      trace through a fresh {!Vc_state} and finds the last access by
      thread [u] to the racy location while [u]'s epoch was [c@u] —
      the exact access the epoch in the shadow word referred to;
    - the {b sync path}: the synchronization events between the two
      accesses involving either thread — the operations that {e had a
      chance} to order them and didn't;
    - a {b replayable slice}: every sync/transaction event up to the
      race plus every access to the racy location.  Replaying the
      slice through the detector reproduces the warning (same
      variable, kind and indices), because the happens-before
      structure and the location's access history are preserved
      exactly (asserted in [test/test_report.ml]);
    - the {b flight-recorder history}: the last few accesses to the
      location with the locks each held, when the run carried an
      enabled {!Obs_recorder}.

    Reconstruction is a cold post-pass (two scans of the trace, only
    when [--explain] or [--report] asked for it); the analysis run
    itself is untouched. *)

type enriched = {
  warning : Warning.t;
  witness : Witness.t option;
      (** with [first.s_index] filled in when reconstruction found the
          first access; [None] for clock-less tools *)
  key : int option;  (** shadow key of the racy location, from the witness *)
  sync_path : (int * Event.t) list;
      (** sync events strictly between the two accesses involving
          either thread, with trace indices; when that window holds
          none, the threads' sync history before the race instead
          (see [sync_scope]) *)
  sync_scope : [ `Between | `Prefix ];
      (** [`Between]: [sync_path] lies strictly between the accesses;
          [`Prefix]: no sync event did, so [sync_path] is both
          threads' sync history up to the second access — the events
          that built the witnessed clocks without ordering the pair *)
  slice : (int * Event.t) list;
      (** replayable sub-trace (original indices), through the second
          access *)
  history : Obs_recorder.entry list;
      (** flight-recorder ring for the location, oldest first *)
}

type t = {
  source : string;
  tool : string;
  jobs : int;
  events : int;   (** trace length *)
  recorder : (string * int) list;
      (** the flight recorder's footprint: [vars_tracked], [recorded],
          [dropped] and [approx_words] (all 0 when it was off) *)
  races : enriched list;
}

val build :
  ?config:Config.t -> ?source:string -> trace:Trace.t -> Driver.result -> t
(** [config] supplies the granularity (for shadow-key matching) and
    the flight recorder; defaults to {!Config.default} (fine grain,
    recorder disabled). *)

val slice_trace : enriched -> Trace.t
(** The replayable slice as a trace (indices dropped), for feeding
    back through {!Driver.run}. *)

(** {2 Rendering} *)

val pp_explain : Format.formatter -> t -> unit
(** The [--explain] text: one block per race — both access epochs with
    vector clocks, the unordered component, the sync path, recorder
    history and slice size. *)

val explain : t -> string

val schema_version : string
(** ["ftrace.report/1"]. *)

val to_json : t -> Obs_json.t
val to_string : t -> string
(** The JSON document. *)

val write_file : path:string -> t -> unit
(** Write the JSON document (plus trailing newline) to [path];
    [path = "-"] writes to stdout. *)
