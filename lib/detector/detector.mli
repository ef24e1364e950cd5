(** The interface every race detector implements.

    Detectors are online: they consume the event stream one operation
    at a time (the analogue of RoadRunner back-end tools processing the
    instrumentation event stream) and accumulate warnings and
    instrumentation statistics. *)

module type S = sig
  type t

  val name : string

  val shares_clocks : bool
  (** Whether this detector resolves {e all} of its synchronization
      lookups through {!Clock_source} (clocks/epochs, held locks,
      barrier generations), so that it can run against a shared
      read-only {!Sync_timeline} ([Config.sync_source]) instead of a
      private sync replay.  When [true], [Driver.run_parallel] may use
      the work-stealing plan (access-only shard items, no broadcast);
      when [false] (e.g. Goldilocks' sync-op log, Accordion's private
      clock compression) the driver falls back to the legacy
      static-broadcast plan. *)

  val create : Config.t -> t

  val on_event : t -> index:int -> Event.t -> unit
  (** Process one operation.  [index] is the event's trace position,
      used only for warning attribution. *)

  val warnings : t -> Warning.t list
  (** Warnings so far, chronological, at most one per shadow location. *)

  val witnesses : t -> Witness.t list
  (** Happens-before witnesses for the warnings that have one
      (chronological; may be empty — only detectors that keep clocks
      can testify).  Never longer than [warnings]. *)

  val stats : t -> Stats.t
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed
(** A detector bundled with its state, for running heterogeneous
    collections of tools over the same trace. *)

val instantiate : (module S) -> Config.t -> packed
val packed_name : packed -> string
val packed_on_event : packed -> index:int -> Event.t -> unit

(** [packed_handler p] destructures [p] once and returns the plain
    [fun index e -> ...] event handler — what the drivers' hot loops
    call, keeping the per-event path to one closure invocation. *)
val packed_handler : packed -> int -> Event.t -> unit
val packed_warnings : packed -> Warning.t list
val packed_witnesses : packed -> Witness.t list
val packed_stats : packed -> Stats.t
