(** Instrumentation counters for the evaluation tables.

    [vc_allocs] and [vc_ops] feed Table 2 (vector clocks allocated,
    O(n)-time vector clock operations); [state_words]/[peak_words] feed
    Table 3 (analysis memory overhead); the [rules] histogram feeds the
    Figure 2 rule-frequency percentages. *)

type t = {
  mutable events : int;
  mutable reads : int;
  mutable writes : int;
  mutable syncs : int;
  mutable eliminated : int;
      (** accesses skipped by the static pre-pass
          ([Config.static_elim]); not part of [events] *)
  mutable vc_allocs : int;   (** vector clocks allocated *)
  mutable vc_ops : int;      (** O(n)-time VC operations (copy/join/⊑) *)
  mutable vc_ops_skipped : int;
      (** the sync-rule applications among [vc_ops] that {!Vc_state}
          (or the sync timeline) proved to need O(1) work: an acquire
          by the lock's last releaser, a release that rewrites one
          entry *)
  mutable epoch_ops : int;   (** O(1) epoch fast-path comparisons *)
  mutable sampled : int;
      (** accesses the sampling tier analyzed (zero for every
          non-sampling detector) *)
  mutable skipped : int;
      (** accesses the sampling tier declined — counted, then dropped
          before touching shadow state (zero for every non-sampling
          detector); [sampled + skipped = reads + writes] for the
          samplers *)
  mutable state_words : int; (** current shadow-state footprint, words *)
  mutable peak_words : int;
  rules : (string, int ref) Hashtbl.t;
}

val create : unit -> t
val count_event : t -> Event.t -> unit
val bump_rule : t -> string -> unit

(** [counter t rule] is the mutable hit counter for a rule.
    Detectors fetch the refs for their rules once at creation and bump
    them directly, keeping the per-event cost to a single increment
    (no hashing on the hot path). *)
val counter : t -> string -> int ref

val rule_hits : t -> string -> int
val add_words : t -> int -> unit

val sub_words : t -> int -> unit

val merge_into : into:t -> t -> unit
(** Field-wise accumulation, for combining the per-shard counters of
    the parallel driver.  [peak_words] accumulates the {e sum} of
    peaks: shard states coexist, so the sum is the honest upper bound
    on the run's true simultaneous footprint.  Note that after a
    sharded run the broadcast synchronization events are counted once
    per shard in [events]/[syncs]/[vc_ops] — they really were
    processed that many times. *)

val sum : t list -> t
(** Fresh accumulator holding the {!merge_into} of the list. *)

val rules_alist : t -> (string * int) list
(** Rules sorted by descending hit count, ties by name: the same
    order for a run's stats and for any {!sum} or {!merge_into} that
    reaches the same counts. *)

val fields_alist : t -> (string * int) list
(** Every scalar counter as [(name, value)], in declaration order —
    the single source of truth for the exporters ([--metrics] JSON,
    [--verbose-stats] panel), so a new field cannot silently miss the
    export path. *)

val pp : Format.formatter -> t -> unit
