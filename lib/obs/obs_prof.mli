(** Shadow-state profiler: per-variable cost attribution, shadow
    census, and the [ftrace.prof/2] export.

    FastTrack's empirical claim is distributional — almost every
    access takes an O(1) epoch path, and read vector clocks rarely
    stay inflated — but the run-level counters ([Stats.epoch_ops] /
    [vc_ops]) only prove it in aggregate.  This module attributes the
    cost to {e variables}: the detector attaches a {!cell} to each
    shadow state and bumps per-rule counters through it, tags
    inflation/deflation transitions of the read history, and lets the
    driver take a final (or periodic) {e census} of the shadow state
    classifying each variable as epoch-only vs inflated and summing
    its approximate memory footprint.  The hot-variable ranking is
    read from the same exact cells, so the [ftrace.prof/2] document,
    the human panel and the live stream's [top_vars] agree.

    {b Cost model} (measured by [bench profile], gated at <= 10% on
    moldyn): disabled, the handle is an immediate [None] — detectors
    cache one [prof_on : bool] and pay a single predictable branch
    per access.  Enabled, an access costs one increment of the cell's
    rule counter ({!cell_rules}) plus a countdown decrement the
    detector keeps for the timing sampler; the clock is only read
    once per {!sample_stride} accesses.  Census, ranking and exports
    run off the hot path entirely.

    Like the other [lib/obs] facilities, this module sits below the
    detector library: it deals in integer keys and display names, not
    [Var.t] or [Stats.t].

    {b Sharding}: same discipline as [Obs_recorder] — each shard or
    work item profiles into a private {!shard_view} (fresh cells),
    and the driver {!merge}s the views on the main domain after the
    parallel region.  Variable sharding makes the per-key cells
    disjoint, so the merge is a move and the merged profile
    (including the ranking) equals the sequential run's exactly. *)

type t
type cell

(** Figure 5's cost classes: [Same_epoch] is the same-epoch fast
    path; [Epoch] covers the remaining O(1) rules (epoch compares and
    the READ SHARED slot update); [Vc] is the two O(n) vector-clock
    walks (READ SHARE, WRITE SHARED). *)
type rule_class = Same_epoch | Epoch | Vc

val class_to_string : rule_class -> string

val disabled : t
val is_enabled : t -> bool

val create : ?sample_stride:int -> unit -> t
(** An enabled profiler.  [sample_stride] (default 512) is the access
    period of the timing sampler.  Each view's Perfetto counter-track
    series holds at most 512 points (it thins by 2x and doubles its
    stride when full). *)

(** {2 Detector-side hooks} *)

val register_rules : t -> (string * rule_class) array -> unit
(** Declare the detector's rule set once, at instance creation.
    {!cell_rules} indices refer to positions in this array. *)

val no_cell : cell
(** Placeholder for shadow states created while profiling is
    disabled; never counted. *)

val cell : t -> key:int -> name:string -> cell
(** The attribution cell for a shadow key, created on first use (cold
    path: once per variable).  [name] is the display name warnings
    use (e.g. ["x3.1"]). *)

val cell_rules : cell -> int array
(** The cell's raw per-rule counter array: detectors cache it next to
    the shadow state and bump [a.(i)] directly.  A detector must also
    call {!note_totals} whenever the profiler is about to read global
    state — before each {!sample} and at the start of its census
    walker — and {!attribute} on the access being timed.  This is the
    protocol the overhead gate in [bench profile] prices: the
    per-access cost is one array increment plus one cached-bool
    test. *)

val attribute : t -> cell -> vc:bool -> unit
(** Record the cell and cost class ([vc] = an O(n) rule fired) of the
    access being timed, for {!sample} to attribute.  Called from the
    rule site, only on the one access per stride the detector is
    sampling. *)

val note_totals : t -> same:int -> epoch:int -> vc:int -> unit
(** Reconcile the class totals from the detector's own counters
    (absolute values, not deltas).  Cold: sample and census
    boundaries only. *)

val inflate : t -> cell -> unit
(** The variable's read history just inflated to a vector clock
    (READ SHARE). *)

val deflate : t -> cell -> unit
(** The read history just demoted back to an epoch (WRITE SHARED
    under read demotion). *)

val sync_vc_op : t -> unit
(** A synchronization-driven vector-clock operation ([Vc_state]);
    attributed to the sync machinery rather than any variable.  Under
    the stealing plan sync is replayed by the shared timeline before
    the region, so this counts 0 there — the export documents the
    asymmetry. *)

(** {2 Sampled timing} *)

val sample_stride : t -> int
(** The configured sample period (0 disabled).  Detectors keep the
    countdown in their own record — one register decrement per
    access — read this once at creation, and when their countdown
    expires bracket the access with [Obs_clock.now], call
    {!attribute} from the rule that fires, and report {!sample}. *)

val sample : t -> ns:float -> unit
(** Record a sampled access duration, attributed to the cell and cost
    class of the last {!attribute}, into log2-ns buckets; also
    advances the counter-track series. *)

(** {2 Census} *)

val set_census : t -> (unit -> unit) -> unit
(** Register the detector's shadow-state walker.  The walker calls
    {!census_var} once per initialized shadow state. *)

val census_var :
  t -> cell -> inflated:bool -> words:int -> rvc_words:int -> unit
(** Classify one variable: [inflated] iff its read history is
    currently a vector clock; [words] is its whole shadow-state
    footprint including [rvc_words] (the read VC's share, 0 when
    epoch-only). *)

val take_census : t -> unit
(** Run the registered walker (resetting previous census counts).
    Drivers call this at end of run / shard / item, on the domain
    that owns the cells. *)

(** {2 Sharding} *)

val shard_view : t -> t
(** A private view sharing the parent's configuration and clock epoch
    (so series timestamps align) but owning fresh cells.  Disabled
    parent => disabled view. *)

val merge : into:t -> t -> unit
(** Fold a view back into the parent (cells move — disjoint keys
    under variable sharding; totals, buckets and census add).  Main-domain, post-region only. *)

(** {2 Consumers} *)

val accesses : t -> int
(** Attributed accesses so far ([Same_epoch + Epoch + Vc] totals). *)

val vc_walks : t -> int
(** Accesses resolved by an O(n) rule ([Vc] class: READ SHARE /
    WRITE SHARED) — the complement of {!fast_frac}'s numerator. *)

val inflated_now : t -> int
(** Variables whose read history was a vector clock at the last
    {!take_census} (0 before any census). *)

val fast_frac : t -> float
(** Fraction of attributed accesses resolved by an O(1) rule
    ([Same_epoch] or [Epoch]); [0.] before any access (never NaN). *)

val same_epoch_frac : t -> float
(** Fraction resolved by the same-epoch fast path alone. *)

val hot_alist : ?k:int -> t -> (string * int) list
(** Top [k] (default 5) variables by attributed ops (ties by name),
    for the [ftrace.live/1] [top_vars] field; the document's
    [top_vars] and {!render} read the same ranking.  Scans the cell
    table — publish granularity only, not per event. *)

val series : t -> (float * int * int) list
(** The merged counter-track series: [(seconds, cumulative O(1) ops,
    cumulative VC-walk ops)], chronological, summed across shard
    views.  Feeds the Perfetto counter tracks in {!Obs_traceevent}. *)

val schema_version : string
(** ["ftrace.prof/2"]. *)

val document :
  ?source:string ->
  ?tool:string ->
  ?wall:float ->
  ?stats:(string * int) list ->
  ?top:int ->
  t ->
  Obs_json.t
(** The [ftrace.prof/2] document: totals, per-rule attribution with
    cost classes, census, the top-[top] (default 20) variable table
    ([top_vars], ranked as {!hot_alist}: each entry's [ops] is its
    exact attributed count), timing buckets and the run's [stats]
    counters when provided.  A disabled handle yields a valid
    document with zeroed totals. *)

val write_file :
  path:string ->
  ?source:string ->
  ?tool:string ->
  ?wall:float ->
  ?stats:(string * int) list ->
  ?top:int ->
  t ->
  unit
(** Write {!document} to [path]; ["-"] writes to stdout. *)

val render : ?top:int -> ?source:string -> ?tool:string -> t -> string list
(** The human panel (for [ftrace profile] and [--verbose-stats]): one
    string per line, no trailing newline. *)
