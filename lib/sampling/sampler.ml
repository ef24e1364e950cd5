(* The sampling tier: a per-variable coin in front of plain FastTrack
   (see sampler.mli).  The coin's per-variable state, decomposed for
   the hot path: *)
type coin = {
  stats : Stats.t;  (* the detector's, billed for the slot arrays *)
  seed : int;
  budget : int;
  period_shift : int;
  (* gap draws are uniform over [0, gap_range), giving mean inter-
     sample step 1/rate (see [redraw]); 0 encodes rate 0 with a
     burn-in budget still pending *)
  gap_range : int;
  (* degenerate-policy fast flags: when the decision cannot depend on
     the ordinal (rate 1.0, or rate 0.0 with no burn-in budget) the
     coin drops the ordinal bookkeeping entirely — the decision stays
     the same pure function of (seed, var, index), it just became
     constant *)
  always : bool;
  never : bool;
  (* obj-then-field arrays (the decision must not touch the detector's
     Shadow table: the skip path's whole budget is these two loads, a
     compare and a store).  Each slot packs the variable's access
     ordinal (low [ord_bits]) with its next sampled coin index + 1
     (high bits; 0 = not yet drawn). *)
  mutable ords : int array array;
}

let decision_bits = 30
let decision_mask = (1 lsl decision_bits) - 1

(* slot layout: ordinal in the low bits, next-sampled-coin + 1 above
   (so a variable supports 2^31 accesses — FastTrack's shadow memory
   would be the binding constraint long before that) *)
let ord_bits = 31
let ord_mask = (1 lsl ord_bits) - 1

let create_coin ~period_shift (p : Config.sampling) stats =
  let rate = p.Config.rate and budget = p.Config.budget in
  if not (rate >= 0. && rate <= 1.) then
    invalid_arg "Sampler.create: rate must be within [0, 1]";
  if budget < 0 then invalid_arg "Sampler.create: budget must be >= 0";
  { stats;
    seed = p.Config.seed;
    budget;
    period_shift;
    gap_range =
      (if rate > 0. && rate < 1. then
         max 1 (int_of_float (Float.round ((2. /. rate) -. 1.)))
       else 0);
    always = rate >= 1.;
    never = rate <= 0. && budget = 0;
    ords = [||] }

(* -- the coin ------------------------------------------------------ *)

let grow_objs d obj =
  let n = Array.length d.ords in
  let fresh = Array.make (max (obj + 1) (2 * n + 1)) [||] in
  Array.blit d.ords 0 fresh 0 n;
  d.ords <- fresh;
  Stats.add_words d.stats (Array.length fresh - n)

let grow_fields d obj field =
  let inner = d.ords.(obj) in
  let n = Array.length inner in
  let fresh = Array.make (max (field + 1) (2 * n + 1)) 0 in
  Array.blit inner 0 fresh 0 n;
  d.ords.(obj) <- fresh;
  Stats.add_words d.stats (Array.length fresh - n + 1)

(* Walk the variable's deterministic chain of sampled coin indices
   forward until it reaches or passes [coin].  The chain is
   next_{k+1} = next_k + 1 + gap, the gap drawn uniformly from
   [0, gap_range) by the stateless [Prng.mix3 seed key next_k] — so
   the whole sampled set is a pure function of (seed, var), with mean
   inter-sample step (gap_range + 1) / 2 = 1/rate, i.e. an expected
   sampled fraction of exactly the configured rate — at amortized one
   draw per *sample* instead of one hash per *access*.  Runs O(draws
   skipped) but coins advance one per call, so the amortized cost
   sits on sampled accesses. *)
let redraw d key coin start =
  let n = ref start in
  while !n < coin do
    let n' =
      (* gap_range 0 means rate 0 with a burn-in budget still
         pending: the chain must never land (gap = infinity,
         clamped) *)
      if d.gap_range = 0 then ord_mask
      else
        !n + 1
        + Prng.mix3 d.seed key !n land decision_mask mod d.gap_range
    in
    (* clamp so the packed slot's high field stays within its 31 bits
       (also the natural "never again" ceiling: coins are ordinals
       shifted down, so they can't reach it) *)
    n := if n' > ord_mask - 1 then ord_mask - 1 else n'
  done;
  !n

(* Analyze this access?  Pure in [(seed, var, ordinal)]: every plan —
   sequential, static shards, static-elim, work stealing — sees a
   variable's accesses in trace order and undiluted, so the ordinal
   (and hence the decision) is identical everywhere.  The first
   [budget] accesses per variable always pass (the O(1)-samples
   burn-in); after that the variable's precomputed next-sampled-coin
   decides — a coin covers 2^period_shift consecutive accesses — and
   only crossing a sampled coin pays a [redraw]. *)
let[@inline always] decide d (x : Var.t) =
  d.always
  || (not d.never)
     &&
     let obj = x.Var.obj and field = x.Var.field in
     if obj >= Array.length d.ords then grow_objs d obj;
     let inner = Array.unsafe_get d.ords obj in
     if field >= Array.length inner then grow_fields d obj field;
     let inner = Array.unsafe_get d.ords obj in
     let slot = Array.unsafe_get inner field in
     let ord = slot land ord_mask in
     if ord < d.budget then begin
       (* burn-in: high bits stay 0 (chain not yet drawn) *)
       Array.unsafe_set inner field (slot + 1);
       true
     end
     else
       let coin = ord lsr d.period_shift in
       let next = (slot lsr ord_bits) - 1 in
       if next >= coin then begin
         (* the common skip (or mid-sampled-run) path: no draw *)
         Array.unsafe_set inner field (slot + 1);
         next = coin
       end
       else begin
         (* chain fell behind (first post-budget access, or the
            previous sampled run just ended): advance it *)
         let next =
           redraw d
             ((obj lsl 16) lor field)
             coin
             (if next < 0 then coin - 1 else next)
         in
         Array.unsafe_set inner field
           (((next + 1) lsl ord_bits) lor (ord + 1));
         next = coin
       end

(* -- the detector: the coin in front of FastTrack ------------------ *)

(* A rejected access is counted here and, with the flight recorder
   on, handed to [Fasttrack.skip]; every other event — sampled
   accesses and all sync — takes FastTrack's own path, so sync state
   comes from the same Clock_source as FastTrack's.

   The dispatch and the counting live beside [decide]: builds in
   dune's default (dev) profile compile with -opaque, which rules out
   inlining across modules, and a call per rejected access cost the
   skip path ~10 % (moldyn, the A9 gate's workload). *)
type t = { ft : Fasttrack.t; coin : coin; rec_on : bool }

let create ~period_shift (config : Config.t) =
  let ft = Fasttrack.create config in
  { ft;
    coin =
      create_coin ~period_shift config.Config.sampling (Fasttrack.stats ft);
    rec_on = Obs_recorder.is_enabled config.Config.recorder }

let on_event s ~index e =
  match e with
  | Event.Read { x; _ } | Event.Write { x; _ } ->
    let st = s.coin.stats in
    if decide s.coin x then begin
      st.Stats.sampled <- st.Stats.sampled + 1;
      Fasttrack.on_event s.ft ~index e
    end
    else begin
      st.Stats.events <- st.Stats.events + 1;
      (match e with
      | Event.Read _ -> st.Stats.reads <- st.Stats.reads + 1
      | _ -> st.Stats.writes <- st.Stats.writes + 1);
      st.Stats.skipped <- st.Stats.skipped + 1;
      if s.rec_on then Fasttrack.skip s.ft ~index e
    end
  | _ -> Fasttrack.on_event s.ft ~index e

let warnings s = Fasttrack.warnings s.ft
let witnesses s = Fasttrack.witnesses s.ft
let stats s = s.coin.stats
