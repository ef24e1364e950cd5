(* Shared sync-timeline snapshots (see sync_timeline.mli and
   DESIGN.md §"Sync timeline + work stealing").

   One sequential pass over the trace replays every synchronization
   event through a private vector-clock machine (the same Figure 3 /
   Section 4 rules as Vc_state — asserted equal in
   test/test_timeline.ml) and checkpoints, per thread, the clock
   entries each event raised and the epoch.  Sync events are ~3% of
   the stream, so the timeline is small, built once, and then shared
   read-only by every analysis domain — replacing the jobs× redundant
   private sync replays of the original sharded driver. *)

module VC = Vector_clock

(* -- immutable timeline ------------------------------------------- *)

(* One thread's clock checkpoints, as parallel arrays ([at]
   increasing).  Checkpoint [i]'s clock is keyframe [i / key_every]
   with the deltas after it up to [delta.(i)] applied in order. *)
type clocks = {
  at : int array;  (* trace index of the sync event; -1 for the initial state *)
  ep : Epoch.t array;  (* cached E(t) = C_t(t)@t *)
  delta : int array array;  (* [|u; c; ...|] raised over i-1; [||] at keys *)
  keys : VC.t array;  (* full clock at every [key_every]-th checkpoint *)
}

let key_every = 32

type lock_checkpoint = {
  lat : int;  (* trace index of the acquire/release; -1 initial *)
  stamp : int;  (* ordinal of this checkpoint in its thread's list *)
  held : Lockid.t list;  (* sorted, immutable *)
}

type stats = {
  sync_events : int;
  other_events : int;  (* broadcastable non-sync events (txn markers) *)
  vc_ops : int;  (* O(n) clock operations of the replay, as Vc_state counts *)
  vc_ops_skipped : int;  (* of which done in O(1), as Vc_state counts *)
  vc_allocs : int;  (* live-machine clock allocations *)
  checkpoints : int;  (* clock checkpoints recorded across all threads *)
  snapshots : int;  (* keyframes: Σ_t ⌈checkpoints_t / key_every⌉ *)
  snapshot_hits : int;  (* sync events that left a written clock unchanged *)
  words : int;  (* approx heap words of the timeline (keys, deltas, tables) *)
}

type t = {
  nthreads : int;
  clocks : clocks array;  (* [tid] -> clock checkpoints *)
  locks : lock_checkpoint array array;  (* [tid] -> held-lock checkpoints *)
  barriers : int array;  (* indices of Barrier_release events, increasing *)
  stats : stats;
}

let stats tl = tl.stats
let thread_count tl = tl.nthreads

(* -- build-time machine ------------------------------------------- *)

(* L_m with Vc_state's no-op bookkeeping: the thread [lvc] was last
   copied from, and that thread's [m_ext] at the copy. *)
type lock = { lvc : VC.t; mutable releaser : int; mutable seen : int }

type machine = {
  mutable m_clocks : VC.t array;  (* live C, indexed by tid *)
  mutable m_ext : int array;  (* Vc_state's [ext]: C_t changed beyond C_t(t) *)
  m_locks : (Lockid.t, lock) Hashtbl.t;
  m_volatiles : (Volatile.t, VC.t) Hashtbl.t;
  (* per-thread checkpoint accumulators, reverse chronological *)
  mutable last : VC.t array;  (* clock at the thread's last checkpoint *)
  mutable cps : (int * Epoch.t * int array) list array;  (* at, ep, delta *)
  mutable keys_rev : VC.t list array;
  mutable ncps : int array;  (* checkpoints so far *)
  mutable buf : int array;  (* VC.advance scratch: 2 ints per thread *)
  mutable held : Lockid.t list array;  (* live held-lock set, sorted *)
  mutable held_cps : lock_checkpoint list array;
  mutable held_n : int array;  (* checkpoints so far = next stamp *)
  mutable barriers_rev : int list;
  (* counters *)
  mutable c_sync : int;
  mutable c_other : int;
  mutable c_vc_ops : int;
  mutable c_vc_ops_skipped : int;
  mutable c_vc_allocs : int;
  mutable c_snapshot_hits : int;
  mutable c_words : int;
}

let vc_op m = m.c_vc_ops <- m.c_vc_ops + 1

let vc_op_skipped m =
  m.c_vc_ops_skipped <- m.c_vc_ops_skipped + 1;
  vc_op m

let new_vc m =
  m.c_vc_allocs <- m.c_vc_allocs + 1;
  VC.create ()

let volatile_vc m v =
  match Hashtbl.find_opt m.m_volatiles v with
  | Some lv -> lv
  | None ->
    let lv = new_vc m in
    Hashtbl.replace m.m_volatiles v lv;
    lv

let lock m l =
  match Hashtbl.find_opt m.m_locks l with
  | Some lk -> lk
  | None ->
    let lk = { lvc = new_vc m; releaser = -1; seen = 0 } in
    Hashtbl.replace m.m_locks l lk;
    lk

let join_thread m u src =
  if VC.join_changed ~dst:m.m_clocks.(u) src then
    m.m_ext.(u) <- m.m_ext.(u) + 1

(* Record thread [t]'s post-event state as the entries its clock
   raised since its previous checkpoint, plus a full keyframe every
   [key_every] checkpoints.  Skipped when nothing changed: lookups then
   resolve to the earlier, identical checkpoint. *)
let checkpoint m ~index t =
  let ct = m.m_clocks.(t) in
  let raised = VC.advance ~last:m.last.(t) ct m.buf in
  if raised = 0 then m.c_snapshot_hits <- m.c_snapshot_hits + 1
  else begin
    let delta =
      if m.ncps.(t) mod key_every <> 0 then Array.sub m.buf 0 (2 * raised)
      else begin
        let key = VC.copy m.last.(t) in
        m.keys_rev.(t) <- key :: m.keys_rev.(t);
        m.c_words <- m.c_words + VC.heap_words key;
        [||]
      end
    in
    m.cps.(t) <- (index, VC.epoch_of ct t, delta) :: m.cps.(t);
    m.ncps.(t) <- m.ncps.(t) + 1;
    (* at, ep and delta slots, key slot or delta header, the pairs *)
    m.c_words <- m.c_words + 4 + Array.length delta
  end

let held_checkpoint m ~index t held =
  let stamp = m.held_n.(t) + 1 in
  m.held.(t) <- held;
  m.held_n.(t) <- stamp;
  m.held_cps.(t) <- { lat = index; stamp; held } :: m.held_cps.(t);
  m.c_words <- m.c_words + 5 + (3 * List.length held)

let rec insert_sorted (m : Lockid.t) = function
  | [] -> [ m ]
  | x :: rest when x < m -> x :: insert_sorted m rest
  | x :: _ as l when x > m -> m :: l
  | l -> l (* already held: Lockset.Held is a set, mirror that *)

let remove_lock (m : Lockid.t) l = List.filter (fun x -> x <> m) l

(* The Figure 3 / Section 4 rules, mirroring Vc_state.handle_sync
   (including its no-op rules and vc-op accounting) but additionally
   checkpointing the post-event state of every thread whose clock the
   rule writes. *)
let handle_sync_event m ~index e =
  let clock t = m.m_clocks.(t) in
  match e with
  | Event.Read _ | Event.Write _ -> ()
  | Event.Acquire { t; m = l } ->
    let lk = lock m l in
    if lk.releaser = t then begin
      (* C_t is unchanged, so its checkpoint would raise nothing *)
      vc_op_skipped m;
      m.c_snapshot_hits <- m.c_snapshot_hits + 1
    end
    else begin
      join_thread m t lk.lvc;
      vc_op m;
      checkpoint m ~index t
    end;
    held_checkpoint m ~index t (insert_sorted l m.held.(t))
  | Event.Release { t; m = l } ->
    let ct = clock t in
    let lk = lock m l in
    if lk.releaser = t && lk.seen = m.m_ext.(t) then begin
      VC.set lk.lvc t (VC.get ct t);
      vc_op_skipped m
    end
    else begin
      VC.copy_into ~dst:lk.lvc ct;
      lk.releaser <- t;
      lk.seen <- m.m_ext.(t);
      vc_op m
    end;
    VC.inc ct t;
    checkpoint m ~index t;
    held_checkpoint m ~index t (remove_lock l m.held.(t))
  | Event.Fork { t; u } ->
    let ct = clock t in
    join_thread m u ct;
    vc_op m;
    VC.inc ct t;
    checkpoint m ~index t;
    checkpoint m ~index u
  | Event.Join { t; u } ->
    let cu = clock u in
    join_thread m t cu;
    vc_op m;
    VC.inc cu u;
    checkpoint m ~index t;
    checkpoint m ~index u
  | Event.Volatile_read { t; v } ->
    join_thread m t (volatile_vc m v);
    vc_op m;
    checkpoint m ~index t
  | Event.Volatile_write { t; v } ->
    let ct = clock t in
    VC.join_into ~dst:(volatile_vc m v) ct;
    vc_op m;
    VC.inc ct t;
    checkpoint m ~index t
  | Event.Barrier_release { threads } ->
    m.barriers_rev <- index :: m.barriers_rev;
    let joined = VC.create () in
    m.c_vc_allocs <- m.c_vc_allocs + 1;
    List.iter
      (fun u ->
        VC.join_into ~dst:joined (clock u);
        vc_op m)
      threads;
    List.iter
      (fun u ->
        VC.copy_into ~dst:(clock u) joined;
        m.m_ext.(u) <- m.m_ext.(u) + 1;
        vc_op m;
        VC.inc (clock u) u;
        checkpoint m ~index u)
      threads
  | Event.Txn_begin _ | Event.Txn_end _ -> ()

(* -- incremental builder ------------------------------------------- *)

(* The machine starts with zero threads and grows on first touch:
   [ensure_thread m t] creates every missing thread up to [t] —
   contiguously, so tid ranges stay dense exactly as the fixed-size
   build allocated them — giving each new thread its initial clock
   inc_t(⊥V) and its σ₀ checkpoint at index -1.  Growth is exact (no
   doubling): it happens at most once per distinct tid, and thread
   counts are tiny next to trace lengths.

   Stats equality with the fixed-size build: every counter is a sum
   of per-thread contributions, and a thread's checkpoints (deltas,
   keyframes, skips) depend only on its own clock sequence, not on
   when the thread was created.  Asserted stats-equal against the
   one-shot build in test/test_prefix.ml. *)
type builder = machine

let ensure_thread (m : machine) t =
  let n = Array.length m.m_clocks in
  if t >= n then begin
    let n' = t + 1 in
    let grow a fill = Array.init n' (fun u -> if u < n then a.(u) else fill u) in
    m.m_clocks <-
      grow m.m_clocks (fun u ->
          let v = VC.create () in
          VC.inc v u;
          v);
    m.c_vc_allocs <- m.c_vc_allocs + (n' - n);
    m.m_ext <- grow m.m_ext (fun _ -> 0);
    m.last <- grow m.last (fun _ -> VC.create ());
    m.cps <- grow m.cps (fun _ -> []);
    m.keys_rev <- grow m.keys_rev (fun _ -> []);
    m.ncps <- grow m.ncps (fun _ -> 0);
    m.buf <- Array.make (2 * n') 0;
    m.held <- grow m.held (fun _ -> []);
    m.held_cps <- grow m.held_cps (fun _ -> []);
    m.held_n <- grow m.held_n (fun _ -> 0);
    (* σ₀ checkpoints at index -1, so every lookup finds a state. *)
    for u = n to n' - 1 do
      checkpoint m ~index:(-1) u
    done
  end

let builder_create () : builder =
  { m_clocks = [||];
    m_ext = [||];
    m_locks = Hashtbl.create 16;
    m_volatiles = Hashtbl.create 8;
    last = [||];
    cps = [||];
    keys_rev = [||];
    ncps = [||];
    buf = [||];
    held = [||];
    held_cps = [||];
    held_n = [||];
    barriers_rev = [];
    c_sync = 0;
    c_other = 0;
    c_vc_ops = 0;
    c_vc_ops_skipped = 0;
    c_vc_allocs = 0;
    c_snapshot_hits = 0;
    c_words = 0 }

let event_max_tid e =
  match e with
  | Event.Read { t; _ } | Event.Write { t; _ }
  | Event.Acquire { t; _ } | Event.Release { t; _ }
  | Event.Volatile_read { t; _ } | Event.Volatile_write { t; _ }
  | Event.Txn_begin { t } | Event.Txn_end { t } -> t
  | Event.Fork { t; u } | Event.Join { t; u } -> max t u
  | Event.Barrier_release { threads } -> List.fold_left max 0 threads

let feed (m : builder) tr ~index =
  let e = Trace.get tr index in
  if Event.is_sync e then begin
    ensure_thread m (event_max_tid e);
    m.c_sync <- m.c_sync + 1;
    handle_sync_event m ~index e
  end
  else m.c_other <- m.c_other + 1

let finalize (m : builder) ~nthreads =
  let nthreads = max (max 1 nthreads) (Array.length m.m_clocks) in
  (* Pad threads never touched by a sync event (they exist in the
     trace via accesses or txn markers only) with their σ₀ state. *)
  ensure_thread m (nthreads - 1);
  { nthreads;
    clocks =
      Array.mapi
        (fun t rev ->
          let cps = Array.of_list (List.rev rev) in
          { at = Array.map (fun (at, _, _) -> at) cps;
            ep = Array.map (fun (_, ep, _) -> ep) cps;
            delta = Array.map (fun (_, _, d) -> d) cps;
            keys = Array.of_list (List.rev m.keys_rev.(t)) })
        m.cps;
    locks =
      Array.map
        (fun rev ->
          Array.of_list ({ lat = -1; stamp = 0; held = [] } :: List.rev rev))
        m.held_cps;
    barriers = Array.of_list (List.rev m.barriers_rev);
    stats =
      { sync_events = m.c_sync;
        other_events = m.c_other;
        vc_ops = m.c_vc_ops;
        vc_ops_skipped = m.c_vc_ops_skipped;
        vc_allocs = m.c_vc_allocs;
        checkpoints = Array.fold_left ( + ) 0 m.ncps;
        snapshots =
          Array.fold_left
            (fun acc n -> acc + ((n + key_every - 1) / key_every))
            0 m.ncps;
        snapshot_hits = m.c_snapshot_hits;
        words = m.c_words } }

let build_indexed ~nthreads ~sync_indices tr =
  let m = builder_create () in
  Array.iter (fun index -> feed m tr ~index) sync_indices;
  finalize m ~nthreads

(* Standalone build: the replay over every non-access event.  The
   sharded driver instead reuses the stealing plan's prepass. *)
let build tr =
  let m = builder_create () in
  Trace.iteri
    (fun index e -> if not (Event.is_access e) then feed m tr ~index)
    tr;
  finalize m ~nthreads:(Trace.thread_count tr)

(* -- cursors ------------------------------------------------------- *)

(* A cursor is a private, mutable bundle of per-thread positions into
   the immutable checkpoint arrays, plus one materialised clock per
   thread.  Shards walk their events in trace order, so seeks are
   monotone and amortize to O(1); an occasional regression (a detector
   revisiting an earlier index) just restarts that thread's scan from
   the front. *)
type cursor = {
  tl : t;
  cpos : int array;  (* per-tid position into tl.clocks.(t) *)
  mat : VC.t array;  (* per-tid clock at checkpoint [mpos.(t)] *)
  mpos : int array;  (* -1 before the first lookup *)
  lpos : int array;  (* per-tid position into tl.locks.(t) *)
  mutable bpos : int;  (* barriers strictly before the last index *)
}

let cursor tl =
  { tl;
    cpos = Array.make tl.nthreads 0;
    mat = Array.init tl.nthreads (fun _ -> VC.create ());
    mpos = Array.make tl.nthreads (-1);
    lpos = Array.make tl.nthreads 0;
    bpos = 0 }

let cursor_timeline cur = cur.tl

let[@inline] check_tid tl t =
  if t < 0 || t >= tl.nthreads then
    invalid_arg
      (Printf.sprintf "Sync_timeline: tid %d out of range (threads = %d)" t
         tl.nthreads)

(* Position of thread [t]'s latest clock checkpoint with [at < index]:
   the state a detector processing trace position [index] must observe
   — sync effects at the access's own index (impossible for accesses,
   but defensively) are not yet visible. *)
let seek_clock cur ~index t =
  check_tid cur.tl t;
  let at = cur.tl.clocks.(t).at in
  let p = ref cur.cpos.(t) in
  if at.(!p) >= index then p := 0 (* regression: restart *);
  while !p + 1 < Array.length at && at.(!p + 1) < index do
    incr p
  done;
  cur.cpos.(t) <- !p;
  !p

let epoch cur ~index t =
  let p = seek_clock cur ~index t in
  cur.tl.clocks.(t).ep.(p)

(* Bring [mat.(t)] to the seeked checkpoint: apply deltas forward from
   the materialised one, after first copying the target's keyframe when
   the cursor moved backwards or a keyframe lies between the two. *)
let clock cur ~index t =
  let p = seek_clock cur ~index t in
  let cl = cur.tl.clocks.(t) and v = cur.mat.(t) in
  let k = p / key_every * key_every in
  if p < cur.mpos.(t) || k > cur.mpos.(t) then begin
    VC.copy_into ~dst:v cl.keys.(p / key_every);
    cur.mpos.(t) <- k
  end;
  for i = cur.mpos.(t) + 1 to p do
    let d = cl.delta.(i) in
    for j = 0 to (Array.length d / 2) - 1 do
      VC.set v d.(2 * j) d.((2 * j) + 1)
    done
  done;
  cur.mpos.(t) <- p;
  v

(* Latest held-lock checkpoint of thread [t] with [lat < index].  The
   returned [stamp] is a per-thread ordinal that uniquely identifies
   the lock set, letting callers memoize derived representations. *)
let held_locks cur ~index t =
  check_tid cur.tl t;
  let cps = cur.tl.locks.(t) in
  let p = ref cur.lpos.(t) in
  if cps.(!p).lat >= index then p := 0;
  while !p + 1 < Array.length cps && cps.(!p + 1).lat < index do
    incr p
  done;
  cur.lpos.(t) <- !p;
  let cp = cps.(!p) in
  (cp.stamp, cp.held)

(* Number of Barrier_release events strictly before [index] — the
   barrier generation a sequential detector would have accumulated on
   reaching that trace position. *)
let barrier_generation cur ~index =
  let b = cur.tl.barriers in
  let n = Array.length b in
  let p = ref cur.bpos in
  if !p > 0 && b.(!p - 1) >= index then p := 0;
  while !p < n && b.(!p) < index do
    incr p
  done;
  cur.bpos <- !p;
  !p
