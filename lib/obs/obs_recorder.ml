type op = Read | Write

type entry = {
  e_index : int;
  e_tid : int;
  e_op : op;
  e_epoch : int;
  e_clock : int;
  e_locks : int array;
}

(* One per-key ring.  [buf] is a circular buffer of the last [<= cap]
   entries; [next] is the slot the next record goes to; [len] saturates
   at the capacity. *)
type ring = {
  mutable buf : entry array;  (* length = capacity once first used *)
  mutable next : int;
  mutable len : int;
}

type enabled = {
  cap : int;
  rings : (int, ring) Hashtbl.t;
  (* held locks per thread, innermost first (cons order); grown on
     demand.  A list is the right structure: lock nesting depth is
     tiny in practice and release-of-innermost is the common case. *)
  mutable held : int list array;
  mutable total : int;    (* accesses recorded, ever *)
  mutable dropped : int;  (* entries overwritten by wraparound *)
}

type t = enabled option

let disabled = None
let default_capacity = 8

let create ?(capacity = default_capacity) () =
  Some
    { cap = max 1 capacity;
      rings = Hashtbl.create 64;
      held = [||];
      total = 0;
      dropped = 0 }

let is_enabled = Option.is_some
let capacity = function None -> 0 | Some r -> r.cap

(* ------------------------------------------------------------------ *)
(* Lock picture                                                       *)

let ensure_tid r tid =
  let n = Array.length r.held in
  if tid >= n then begin
    let fresh = Array.make (max (tid + 1) (2 * n + 1)) [] in
    Array.blit r.held 0 fresh 0 n;
    r.held <- fresh
  end

let note_acquire t ~tid ~lock =
  match t with
  | None -> ()
  | Some r ->
    ensure_tid r tid;
    r.held.(tid) <- lock :: r.held.(tid)

(* Remove the innermost matching acquisition only: reentrant acquires
   of the same lock nest, and unmatched releases are ignored (the
   trace validator flags those separately). *)
let rec remove_first lock = function
  | [] -> []
  | l :: rest -> if l = lock then rest else l :: remove_first lock rest

let note_release t ~tid ~lock =
  match t with
  | None -> ()
  | Some r ->
    ensure_tid r tid;
    r.held.(tid) <- remove_first lock r.held.(tid)

let locks_held t ~tid =
  match t with
  | None -> [||]
  | Some r ->
    if tid < Array.length r.held then
      (* outermost first: the cons order is innermost first *)
      let a = Array.of_list r.held.(tid) in
      let n = Array.length a in
      Array.init n (fun i -> a.(n - 1 - i))
    else [||]

(* ------------------------------------------------------------------ *)
(* Rings                                                              *)

let dummy_entry =
  { e_index = -1; e_tid = -1; e_op = Read; e_epoch = 0; e_clock = 0;
    e_locks = [||] }

let ring_of r key =
  match Hashtbl.find_opt r.rings key with
  | Some ring -> ring
  | None ->
    let ring = { buf = Array.make r.cap dummy_entry; next = 0; len = 0 } in
    Hashtbl.replace r.rings key ring;
    ring

let record t ~key ~index ~tid ~op ~epoch ~clock =
  match t with
  | None -> ()
  | Some r ->
    let ring = ring_of r key in
    ring.buf.(ring.next) <-
      { e_index = index; e_tid = tid; e_op = op; e_epoch = epoch;
        e_clock = clock; e_locks = locks_held t ~tid };
    ring.next <- (ring.next + 1) mod r.cap;
    if ring.len < r.cap then ring.len <- ring.len + 1
    else r.dropped <- r.dropped + 1;
    r.total <- r.total + 1

let entries t ~key =
  match t with
  | None -> []
  | Some r -> (
    match Hashtbl.find_opt r.rings key with
    | None -> []
    | Some ring ->
      (* oldest first: when full, the oldest is at [next]; otherwise
         the ring starts at 0. *)
      let start = if ring.len < r.cap then 0 else ring.next in
      List.init ring.len (fun i -> ring.buf.((start + i) mod r.cap)))

let keys = function
  | None -> []
  | Some r ->
    Hashtbl.fold (fun k _ acc -> k :: acc) r.rings []
    |> List.sort Int.compare

let recorded = function None -> 0 | Some r -> r.total
let dropped = function None -> 0 | Some r -> r.dropped
let vars_tracked = function None -> 0 | Some r -> Hashtbl.length r.rings

(* entry record: header + 6 fields; the locks array: header + len *)
let entry_words e = 7 + 1 + Array.length e.e_locks

let approx_words = function
  | None -> 0
  | Some r ->
    Hashtbl.fold
      (fun _ ring acc ->
        let live = ref (1 + r.cap) (* ring record + buffer *) in
        for i = 0 to ring.len - 1 do
          live := !live + entry_words ring.buf.(i)
        done;
        acc + !live)
      r.rings 0
    + Array.length r.held

(* ------------------------------------------------------------------ *)
(* Sharding                                                           *)

let shard_view = function
  | None -> None
  | Some r ->
    Some
      { cap = r.cap;
        rings = Hashtbl.create 64;
        held = [||];
        total = 0;
        dropped = 0 }

let merge ~into src =
  match (into, src) with
  | Some into, Some src ->
    (* Variable sharding gives each key to exactly one shard, so the
       rings are disjoint; a plain move preserves every ring.  (If a
       key somehow appears on both sides, the source — the view that
       actually recorded during the region — wins.) *)
    Hashtbl.iter (fun k ring -> Hashtbl.replace into.rings k ring) src.rings;
    (* Every view replayed the full sync stream, so each holds the
       complete lock picture: the parent keeps one, as the sequential
       run's recorder would. *)
    if Array.length src.held > Array.length into.held then
      into.held <- src.held;
    into.total <- into.total + src.total;
    into.dropped <- into.dropped + src.dropped
  | _ -> ()
