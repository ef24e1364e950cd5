type t = {
  shard_id : int;
  trace : Trace.t;
  indices : int array;
  accesses : int;
}

type kind = Static | Stealing

let kind_to_string = function Static -> "static" | Stealing -> "stealing"

type plan = {
  jobs : int;
  kind : kind;
  slots : int;
  shards : t array;
  broadcast : int;
}

let shard_of_var = Var.owner_shard

let default_steal_factor = 8

let length s = Array.length s.indices

let iter_range ~lo ~hi f s =
  for k = max 0 lo to min hi (Array.length s.indices) - 1 do
    let i = Array.unsafe_get s.indices k in
    f i (Trace.get s.trace i)
  done

let plan ~jobs tr =
  let jobs = max 1 jobs in
  (* counting pass: per-shard owned accesses + broadcast size *)
  let owned = Array.make jobs 0 in
  let broadcast = ref 0 in
  Trace.iter
    (fun e ->
      match e with
      | Event.Read { x; _ } | Event.Write { x; _ } ->
        let s = shard_of_var ~jobs x in
        owned.(s) <- owned.(s) + 1
      | _ -> incr broadcast)
    tr;
  let shard s =
    let indices = Array.make (owned.(s) + !broadcast) (-1) in
    let fill = ref 0 in
    Trace.iter_shard ~jobs ~shard:s
      (fun index _ ->
        indices.(!fill) <- index;
        incr fill)
      tr;
    assert (!fill = Array.length indices);
    { shard_id = s; trace = tr; indices; accesses = owned.(s) }
  in
  { jobs;
    kind = Static;
    slots = jobs;
    shards = Array.init jobs shard;
    broadcast = !broadcast }

(* Growable int array: the single-pass plan below appends trace
   indices without a counting pre-pass (the pre-pass was a measured
   ~40% of the stealing plan's serial prefix). *)
type ibuf = { mutable buf : int array; mutable len : int }

let ibuf_make capacity = { buf = Array.make (max 16 capacity) 0; len = 0 }

(* Cold grow path kept out of line so [ibuf_push] stays small enough
   for the compiler to inline into the hot routing loop. *)
let ibuf_grow b =
  let bigger = Array.make (2 * Array.length b.buf) 0 in
  Array.blit b.buf 0 bigger 0 b.len;
  b.buf <- bigger

let[@inline] ibuf_push b i =
  if b.len = Array.length b.buf then ibuf_grow b;
  Array.unsafe_set b.buf b.len i;
  b.len <- b.len + 1

let ibuf_contents b = Array.sub b.buf 0 b.len

type prepass = {
  pp_nthreads : int;
  pp_sync_indices : int array;
  pp_eliminated : int;
}

(* Work-stealing plan: split the *accesses* (only — the shared sync
   timeline replaces the broadcast) over [factor x jobs] fine-grained
   items by object id, then order the items longest-first (LPT).
   Workers pull items dynamically (Domain_pool.run_queue), so a hot
   object pins at most one worker while the others drain the queue —
   with enough items, measured imbalance drops toward 1.0 wherever the
   static [obj mod jobs] split stranded hot objects on one shard.

   A single trace pass fills per-slot growable index buffers and, on
   the side, collects everything [Sync_timeline.build_indexed] needs —
   the non-access event indices and the thread count — so the whole
   serial prefix of a stealing run reads the trace exactly once. *)
let plan_stealing_prepass ?(factor = default_steal_factor) ?skip ~jobs tr =
  let jobs = max 1 jobs in
  let slots = max jobs (max 1 factor * jobs) in
  (* Size buffers for a roughly even split: doubling copies then only
     trigger on genuinely hot slots. *)
  let per_slot = (2 * Trace.length tr) / max 1 slots in
  let bufs = Array.init slots (fun _ -> ibuf_make per_slot) in
  let sync = ibuf_make (Trace.length tr / 16) in
  let max_tid = ref 0 in
  let[@inline] tid t = if t > !max_tid then max_tid := t in
  (* Static check elimination at routing time: a certified access is
     dropped here and never enters a work item (so LPT ordering and
     the measured per-worker balance both see the post-elimination
     load).  [drop] is selected once, outside the loop. *)
  let eliminated = ref 0 in
  let drop =
    match skip with
    | None -> fun _ -> false
    | Some certified ->
      fun x ->
        if certified x then begin
          incr eliminated;
          true
        end
        else false
  in
  Trace.iteri
    (fun index e ->
      match e with
      | Event.Read { x; t } | Event.Write { x; t } ->
        tid t;
        if not (drop x) then
          ibuf_push bufs.(shard_of_var ~jobs:slots x) index
      | Event.Acquire { t; _ } | Event.Release { t; _ }
      | Event.Volatile_read { t; _ } | Event.Volatile_write { t; _ }
      | Event.Txn_begin { t } | Event.Txn_end { t } ->
        tid t;
        ibuf_push sync index
      | Event.Fork { t; u } | Event.Join { t; u } ->
        tid t;
        tid u;
        ibuf_push sync index
      | Event.Barrier_release { threads } ->
        List.iter tid threads;
        ibuf_push sync index)
    tr;
  let shards =
    Array.init slots (fun s ->
        { shard_id = s; trace = tr; indices = ibuf_contents bufs.(s);
          accesses = bufs.(s).len })
  in
  (* LPT order: descending accesses, shard id breaking ties so the
     order (hence the work distribution) is deterministic. *)
  Array.sort
    (fun a b ->
      if a.accesses <> b.accesses then Int.compare b.accesses a.accesses
      else Int.compare a.shard_id b.shard_id)
    shards;
  ( { jobs; kind = Stealing; slots; shards; broadcast = sync.len },
    { pp_nthreads = !max_tid + 1;
      pp_sync_indices = ibuf_contents sync;
      pp_eliminated = !eliminated } )

let plan_stealing ?factor ?skip ~jobs tr =
  fst (plan_stealing_prepass ?factor ?skip ~jobs tr)

(* -- segmented routing (the parallel prefix) ----------------------- *)

(* One trace segment's routing byproduct: per-slot index runs plus the
   segment's sync-index run, max tid and elimination count.  Routing
   is a pure per-event function ([shard_of_var] depends only on the
   event), so concatenating the per-slot runs of any segmentation in
   segment order reproduces the serial single-pass result exactly —
   the stitching invariant DESIGN.md proves and test_prefix.ml checks. *)
type segment_route = {
  sr_lo : int;
  sr_hi : int;
  sr_bufs : ibuf array;  (* per-slot access-index runs, length slots *)
  sr_sync : ibuf;  (* non-access event indices in [lo, hi) *)
  sr_max_tid : int;
  sr_eliminated : int;
}

let route_segment ?(factor = default_steal_factor) ?skip ~jobs ~lo ~hi tr =
  let jobs = max 1 jobs in
  let slots = max jobs (max 1 factor * jobs) in
  let seg_len = max 0 (hi - lo) in
  let per_slot = (2 * seg_len) / max 1 slots in
  let bufs = Array.init slots (fun _ -> ibuf_make per_slot) in
  let sync = ibuf_make (max 16 (seg_len / 16)) in
  let max_tid = ref 0 in
  let[@inline] tid t = if t > !max_tid then max_tid := t in
  let eliminated = ref 0 in
  let drop =
    match skip with
    | None -> fun _ -> false
    | Some certified ->
      fun x ->
        if certified x then begin
          incr eliminated;
          true
        end
        else false
  in
  Trace.iter_range ~lo ~hi
    (fun index e ->
      match e with
      | Event.Read { x; t } | Event.Write { x; t } ->
        tid t;
        if not (drop x) then
          ibuf_push bufs.(shard_of_var ~jobs:slots x) index
      | Event.Acquire { t; _ } | Event.Release { t; _ }
      | Event.Volatile_read { t; _ } | Event.Volatile_write { t; _ }
      | Event.Txn_begin { t } | Event.Txn_end { t } ->
        tid t;
        ibuf_push sync index
      | Event.Fork { t; u } | Event.Join { t; u } ->
        tid t;
        tid u;
        ibuf_push sync index
      | Event.Barrier_release { threads } ->
        List.iter tid threads;
        ibuf_push sync index)
    tr;
  { sr_lo = lo; sr_hi = hi; sr_bufs = bufs; sr_sync = sync;
    sr_max_tid = !max_tid; sr_eliminated = !eliminated }

let route_iter_sync r f =
  let b = r.sr_sync in
  for i = 0 to b.len - 1 do
    f (Array.unsafe_get b.buf i)
  done

(* Stitch per-segment runs back into the serial prepass result: for
   each slot, the concatenation (in segment order) of the segments'
   runs is exactly the index sequence the serial pass would have
   pushed, because routing is per-event and segments partition the
   trace in index order.  Everything downstream — LPT sort, item
   construction, the prepass record — is shared with the serial path,
   so the two are equal by construction (asserted in test_prefix.ml). *)
let concat_routes ~jobs routes tr =
  let jobs = max 1 jobs in
  if Array.length routes = 0 then invalid_arg "Shard.concat_routes: no routes";
  let slots = Array.length routes.(0).sr_bufs in
  let concat_runs proj total =
    let out = Array.make total 0 in
    let fill = ref 0 in
    Array.iter
      (fun r ->
        let b : ibuf = proj r in
        Array.blit b.buf 0 out !fill b.len;
        fill := !fill + b.len)
      routes;
    assert (!fill = total);
    out
  in
  let shards =
    Array.init slots (fun s ->
        let total =
          Array.fold_left (fun acc r -> acc + r.sr_bufs.(s).len) 0 routes
        in
        { shard_id = s; trace = tr;
          indices = concat_runs (fun r -> r.sr_bufs.(s)) total;
          accesses = total })
  in
  Array.sort
    (fun a b ->
      if a.accesses <> b.accesses then Int.compare b.accesses a.accesses
      else Int.compare a.shard_id b.shard_id)
    shards;
  let sync_total =
    Array.fold_left (fun acc r -> acc + r.sr_sync.len) 0 routes
  in
  let max_tid =
    Array.fold_left (fun acc r -> max acc r.sr_max_tid) 0 routes
  in
  let eliminated =
    Array.fold_left (fun acc r -> acc + r.sr_eliminated) 0 routes
  in
  ( { jobs; kind = Stealing; slots; shards; broadcast = sync_total },
    { pp_nthreads = max_tid + 1;
      pp_sync_indices = concat_runs (fun r -> r.sr_sync) sync_total;
      pp_eliminated = eliminated } )

let imbalance_of_counts counts =
  let counts = Array.map float_of_int counts in
  let total = Array.fold_left ( +. ) 0. counts in
  if total <= 0. || Array.length counts = 0 then 1.0
  else
    let mean = total /. float_of_int (Array.length counts) in
    Array.fold_left Float.max 0. counts /. mean

let imbalance p =
  imbalance_of_counts (Array.map (fun s -> s.accesses) p.shards)
