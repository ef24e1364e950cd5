module VC = Vector_clock

(* L_m plus what makes two lock rules O(1) when they change nothing.
   [releaser] is the thread whose clock [lvc] was last copied from
   (-1 before the first release) and [seen] that thread's [ext] at the
   copy.  While [seen = ext.(releaser)], [lvc] equals C_releaser in
   every entry but the releaser's own. *)
type lock = { lvc : VC.t; mutable releaser : int; mutable seen : int }

type t = {
  stats : Stats.t;
  prof : Obs_prof.t;  (* sync-op attribution hook; disabled = None *)
  mutable clocks : VC.t array;   (* C, indexed by tid *)
  mutable epochs : Epoch.t array; (* cached E(t) = C_t(t)@t *)
  mutable ext : int array;
      (* bumped whenever a join or copy changes C_t beyond C_t(t) *)
  mutable nthreads : int;
  locks : (Lockid.t, lock) Hashtbl.t;
  volatiles : (Volatile.t, VC.t) Hashtbl.t;
}

let create ?(prof = Obs_prof.disabled) stats =
  { stats;
    prof;
    clocks = [||];
    epochs = [||];
    ext = [||];
    nthreads = 0;
    locks = Hashtbl.create 16;
    volatiles = Hashtbl.create 8 }

let ensure_thread s t =
  let n = Array.length s.clocks in
  if t >= n then begin
    let n' = max (t + 1) (2 * n + 1) in
    let clocks = Array.make n' (VC.create ()) in
    let epochs = Array.make n' Epoch.bottom in
    let ext = Array.make n' 0 in
    Array.blit s.clocks 0 clocks 0 n;
    Array.blit s.epochs 0 epochs 0 n;
    Array.blit s.ext 0 ext 0 n;
    for u = n to n' - 1 do
      let v = VC.create () in
      VC.inc v u;
      clocks.(u) <- v;
      epochs.(u) <- Epoch.make ~tid:u ~clock:1;
      s.stats.vc_allocs <- s.stats.vc_allocs + 1;
      Stats.add_words s.stats (VC.heap_words v)
    done;
    s.clocks <- clocks;
    s.epochs <- epochs;
    s.ext <- ext
  end;
  if t >= s.nthreads then s.nthreads <- t + 1

let clock s t =
  ensure_thread s t;
  s.clocks.(t)

let epoch s t =
  ensure_thread s t;
  s.epochs.(t)

let refresh_epoch s t =
  s.epochs.(t) <- Epoch.make ~tid:t ~clock:(VC.get s.clocks.(t) t)

let new_vc s =
  let v = VC.create () in
  s.stats.vc_allocs <- s.stats.vc_allocs + 1;
  Stats.add_words s.stats (VC.heap_words v);
  v

let volatile_vc s v =
  match Hashtbl.find_opt s.volatiles v with
  | Some lv -> lv
  | None ->
    let lv = new_vc s in
    Hashtbl.replace s.volatiles v lv;
    lv

let lock s m =
  match Hashtbl.find_opt s.locks m with
  | Some l -> l
  | None ->
    let l = { lvc = new_vc s; releaser = -1; seen = 0 } in
    Hashtbl.replace s.locks m l;
    l

(* Every rule application is one [vc_op], the Table 2 count, whether
   or not it was done in O(1). *)
let vc_op s =
  s.stats.vc_ops <- s.stats.vc_ops + 1;
  (* sync events are a few percent of a trace, so the profiler hook
     here is a plain (cold-ish) call, not a cached-bool branch *)
  Obs_prof.sync_vc_op s.prof

let vc_op_skipped s =
  s.stats.vc_ops_skipped <- s.stats.vc_ops_skipped + 1;
  vc_op s

(* C_u := C_u ⊔ src, noting any change for the release rule. *)
let join_thread s u src =
  if VC.join_changed ~dst:s.clocks.(u) src then s.ext.(u) <- s.ext.(u) + 1

let handle_sync s e =
  match e with
  | Event.Read _ | Event.Write _ -> false
  | Event.Acquire { t; m } ->
    (* [FT ACQUIRE]  C' = C[t := Ct ⊔ Lm].  A no-op when t released m
       last: Lm was copied from Ct, and Ct only grows. *)
    ensure_thread s t;
    let l = lock s m in
    if l.releaser = t then vc_op_skipped s
    else begin
      join_thread s t l.lvc;
      vc_op s;
      refresh_epoch s t
    end;
    true
  | Event.Release { t; m } ->
    (* [FT RELEASE]  L' = L[m := Ct]; C' = C[t := inc_t(Ct)].  When t
       released m last and Ct has changed only in entry t since, Lm
       differs from Ct in that entry alone. *)
    let ct = clock s t in
    let l = lock s m in
    if l.releaser = t && l.seen = s.ext.(t) then begin
      VC.set l.lvc t (VC.get ct t);
      vc_op_skipped s
    end
    else begin
      VC.copy_into ~dst:l.lvc ct;
      l.releaser <- t;
      l.seen <- s.ext.(t);
      vc_op s
    end;
    VC.inc ct t;
    refresh_epoch s t;
    true
  | Event.Fork { t; u } ->
    (* [FT FORK]  C' = C[u := Cu ⊔ Ct, t := inc_t(Ct)] *)
    let ct = clock s t in
    ensure_thread s u;
    join_thread s u ct;
    vc_op s;
    VC.inc ct t;
    refresh_epoch s t;
    refresh_epoch s u;
    true
  | Event.Join { t; u } ->
    (* [FT JOIN]  C' = C[t := Ct ⊔ Cu, u := inc_u(Cu)] *)
    ensure_thread s t;
    let cu = clock s u in
    join_thread s t cu;
    vc_op s;
    VC.inc cu u;
    refresh_epoch s t;
    refresh_epoch s u;
    true
  | Event.Volatile_read { t; v } ->
    (* [FT READ VOLATILE]  C' = C[t := Ct ⊔ Lvx] *)
    ensure_thread s t;
    join_thread s t (volatile_vc s v);
    vc_op s;
    refresh_epoch s t;
    true
  | Event.Volatile_write { t; v } ->
    (* [FT WRITE VOLATILE]  L' = L[vx := Ct ⊔ Lvx]; C' = C[t := inc_t(Ct)] *)
    let ct = clock s t in
    VC.join_into ~dst:(volatile_vc s v) ct;
    vc_op s;
    VC.inc ct t;
    refresh_epoch s t;
    true
  | Event.Barrier_release { threads } ->
    (* [FT BARRIER RELEASE]  C' = λt∈T. inc_t(⊔_{u∈T} Cu) *)
    let joined = VC.create () in
    s.stats.vc_allocs <- s.stats.vc_allocs + 1;
    List.iter
      (fun u ->
        VC.join_into ~dst:joined (clock s u);
        vc_op s)
      threads;
    List.iter
      (fun u ->
        VC.copy_into ~dst:(clock s u) joined;
        s.ext.(u) <- s.ext.(u) + 1;
        vc_op s;
        VC.inc s.clocks.(u) u;
        refresh_epoch s u)
      threads;
    true
  | Event.Txn_begin _ | Event.Txn_end _ -> true

let thread_count s = s.nthreads
