(** Shared synchronization state for the vector-clock-based detectors.

    Every VC-based detector (BasicVC, DJIT+, MultiRace, FastTrack)
    maintains the same [C] (per-thread clocks) and [L] (per-lock and
    per-volatile clocks) components and updates them identically on
    synchronization operations — the Figure 3 rules plus the volatile
    and barrier extensions of Section 4.  This module implements those
    rules once, with instrumentation counters charged to the owning
    detector's {!Stats.t}, mirroring how the paper's tools all share
    one optimized vector-clock implementation.

    Two lock cases that change nothing beyond one entry run in O(1):
    an acquire of [m] by the thread that last released [m], and a
    release of [m] by that thread while its clock has changed only in
    its own entry since.  Every clock stays exactly as the full rule
    leaves it; each such case still counts as one [vc_ops] and also
    as one [vc_ops_skipped]. *)

type t

val create : ?prof:Obs_prof.t -> Stats.t -> t
(** [prof] (default disabled) receives one [Obs_prof.sync_vc_op] per
    synchronization-driven vector-clock operation, so the profiler
    can attribute VC cost to the sync machinery separately from the
    per-variable access rules.  Under the stealing plan sync is
    replayed by [Sync_timeline] before the region, so a shared-mode
    detector's profile counts 0 here. *)

val clock : t -> Tid.t -> Vector_clock.t
(** [C_t], created on first use with [C_t(t) = 1]
    (the paper's [σ₀ = (λt. inc_t(⊥V), …)]). *)

val epoch : t -> Tid.t -> Epoch.t
(** Thread [t]'s current epoch [E(t) = C_t(t)@t], cached as in the
    paper's [ThreadState.epoch] field. *)

val handle_sync : t -> Event.t -> bool
(** Applies the Figure 3 / Section 4 rule for a synchronization or
    transaction-marker event and returns [true]; returns [false] for
    [Read]/[Write] events, which the caller must analyze itself. *)

val thread_count : t -> int
(** Number of thread states created so far. *)
