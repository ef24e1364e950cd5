(* Where a detector's synchronization state comes from (see
   clock_source.mli).  Live = a private Vc_state fed every sync event
   (sequential runs, legacy broadcast shards).  Shared = a cursor over
   an immutable Sync_timeline built once before the parallel region
   (work-stealing shards). *)

type t =
  | Live of Vc_state.t
  | Shared of Sync_timeline.cursor

let create (config : Config.t) stats =
  match config.Config.sync_source with
  | Some tl -> Shared (Sync_timeline.cursor tl)
  | None -> Live (Vc_state.create ~prof:config.Config.prof stats)

let handle_sync cs e =
  match cs with
  | Live s -> Vc_state.handle_sync s e
  | Shared _ ->
    (* The timeline already replayed every sync event; a shared-mode
       detector only ever receives (and analyzes) accesses. *)
    not (Event.is_access e)

let epoch cs ~index t =
  match cs with
  | Live s -> Vc_state.epoch s t
  | Shared cur -> Sync_timeline.epoch cur ~index t

let clock cs ~index t =
  match cs with
  | Live s -> Vc_state.clock s t
  | Shared cur -> Sync_timeline.clock cur ~index t

let thread_count = function
  | Live s -> Vc_state.thread_count s
  | Shared cur -> Sync_timeline.thread_count (Sync_timeline.cursor_timeline cur)

(* -- lock / barrier facet ------------------------------------------ *)

(* Live lock tracking mirrors Sync_timeline's representation — sorted
   [Lockid.t list] with set semantics plus a per-thread stamp ordinal
   — so lockset detectors see one interface in both modes and can
   memoize derived set representations keyed on [(tid, stamp)]. *)

type live_locks = {
  mutable held : Lockid.t list array;  (* sorted, set semantics *)
  mutable stamp : int array;
  mutable barrier_gen : int;
}

type locks =
  | L_live of live_locks
  | L_shared of Sync_timeline.cursor

let locks (config : Config.t) =
  match config.Config.sync_source with
  | Some tl -> L_shared (Sync_timeline.cursor tl)
  | None ->
    L_live { held = Array.make 8 []; stamp = Array.make 8 0; barrier_gen = 0 }

let ensure_tid l t =
  let n = Array.length l.held in
  if t >= n then begin
    let n' = max (t + 1) (2 * n) in
    let held = Array.make n' [] and stamp = Array.make n' 0 in
    Array.blit l.held 0 held 0 n;
    Array.blit l.stamp 0 stamp 0 n;
    l.held <- held;
    l.stamp <- stamp
  end

let rec insert_sorted (m : Lockid.t) = function
  | [] -> [ m ]
  | x :: rest when x < m -> x :: insert_sorted m rest
  | x :: _ as s when x > m -> m :: s
  | s -> s (* already held *)

let locks_on_event ls e =
  match ls with
  | L_shared _ -> () (* the timeline already tracked it *)
  | L_live l -> (
    match e with
    | Event.Acquire { t; m } ->
      ensure_tid l t;
      l.held.(t) <- insert_sorted m l.held.(t);
      l.stamp.(t) <- l.stamp.(t) + 1
    | Event.Release { t; m } ->
      ensure_tid l t;
      l.held.(t) <- List.filter (fun x -> x <> m) l.held.(t);
      l.stamp.(t) <- l.stamp.(t) + 1
    | Event.Barrier_release _ -> l.barrier_gen <- l.barrier_gen + 1
    | _ -> ())

let held_locks ls ~index t =
  match ls with
  | L_shared cur -> Sync_timeline.held_locks cur ~index t
  | L_live l ->
    if t < Array.length l.held then (l.stamp.(t), l.held.(t)) else (0, [])

let barrier_generation ls ~index =
  match ls with
  | L_shared cur -> Sync_timeline.barrier_generation cur ~index
  | L_live l -> l.barrier_gen
