(** The sampling tier: a per-access coin in front of plain
    {!Fasttrack} (shared by {!Sampling_ft} and {!Sampling_period}).

    An access outside its variable's burn-in budget is analyzed only
    when a stateless hash of [(seed, variable, per-variable ordinal)]
    lands under the configured rate ({!Config.sampling}).  The coin
    keeps no analysis state of its own: a rejected access is counted
    and handed to {!Fasttrack.skip} (shown to the flight recorder,
    then dropped before touching any shadow or sync state), and every
    other event — sampled accesses
    and all sync — to {!Fasttrack.on_event}.  So every warning the
    sampler raises is a genuine happens-before race between two
    analyzed accesses — sampling loses recall, never precision — and
    at [rate = 1.0] every coin lands, making the samplers FastTrack by
    construction.

    Each decision is a pure function of [(seed, var, ordinal)], so
    every plan that sees a variable's accesses in trace order
    (sequential, both shard plans, static elimination) decides
    alike. *)

type t

val create : period_shift:int -> Config.t -> t
(** [period_shift] buckets the per-variable ordinal before hashing:
    [0] tosses a fresh coin per access ({!Sampling_ft}), [k > 0]
    samples whole runs of [2^k] consecutive accesses to the variable
    ({!Sampling_period} uses [k = 4]), trading recall granularity for
    longer analyzed bursts that can pair both sides of a race.

    @raise Invalid_argument if the rate is NaN or outside [[0, 1]],
    or the budget is negative. *)

val on_event : t -> index:int -> Event.t -> unit
val warnings : t -> Warning.t list
val witnesses : t -> Witness.t list
val stats : t -> Stats.t
