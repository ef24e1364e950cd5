type node = { n_tid : Tid.t; n_seg : int }

type edge_kind =
  | Po
  | Fork_edge
  | Join_edge
  | Barrier_edge of { barrier : int; round : int }

type edge = { e_from : node; e_to : node; e_kind : edge_kind }

type skeleton = {
  sk_segs : (Tid.t * int) list;
  sk_edges : edge list;
}

type site = {
  s_tid : Tid.t;
  s_seg : int;
  s_write : bool;
  s_locks : Lockid.t list;
  s_count : int;
}

type verdict =
  | Thread_local of Tid.t
  | Task_local of Tid.t
  | Read_only
  | Lock_protected of Lockid.t
  | Sp_ordered
  | Fork_join_ordered
  | Barrier_phased
  | May_race

type chain = int array

type link = { k_read : node; k_after : int; k_in : chain; k_out : chain }

type order = { o_writes : node array; o_steps : chain array; o_reads : link array }

type certificate =
  | Cert_thread_local of Tid.t
  | Cert_task_local of Tid.t
  | Cert_read_only
  | Cert_lock_protected of Lockid.t
  | Cert_sp_ordered of order
  | Cert_ordered of { c_barrier : bool; c_order : order }

type entry = {
  e_var : Var.t;
  e_verdict : verdict;
  e_cert : certificate option;
  e_keys : int array;
  e_counts : int array;
  e_accesses : int;
}

type finding_kind =
  | Release_without_hold of Lockid.t
  | Wait_without_monitor of Lockid.t
  | Lock_never_released of Lockid.t
  | Unknown_barrier of int
  | Barrier_party_mismatch of { barrier : int; parties : int; participants : int }
  | Barrier_round_mismatch of { barrier : int }
  | Join_of_unknown of Tid.t
  | Join_before_fork of Tid.t
  | Duplicate_fork of Tid.t
  | Lock_order_cycle of { locks : Lockid.t list }
  | Async_escapes_finish of Tid.t
  | Finish_never_closed of { owner : Tid.t; task : Tid.t }
  | Join_of_task of Tid.t
  | Unbounded_task_fanout of { tid : Tid.t; count : int; limit : int }

type finding = {
  f_tid : Tid.t option;
  f_kind : finding_kind;
}

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x27d4eb2d in
    (h lxor (h lsr 29)) land max_int
end)

module Ktbl = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b

  let hash a = Array.fold_left (fun h k -> (h * 31) + k) 0 a land max_int
end)

(* One graph over the skeleton (fork/join edges only, or with barrier
   edges).  Nodes are numbered [base(thread) + seg] with threads in
   ascending tid order, so node ids ascend in [(tid, seg)].  Every node
   [v] carries an int clock over thread indices: [clk(v)[i]] is the
   highest segment of thread [i] that reaches [v] (-1: none) — the
   paper's replacement of reachability by clock comparison (Section 4),
   applied to the static happens-before skeleton.  Since program order
   glues the segments of a thread, [a] reaches [b] iff
   [clk(b)[tid a] >= seg a].  Beside each entry [g_by] records what
   last raised it: -2 for the program-order edge from [v - 1], an edge
   index for an inter-thread edge, -1 while the entry still holds its
   initial value. *)
type graph = { g_clk : int array; g_by : int array }

type labels = {
  l_threads : int;
  l_index : (Tid.t, int) Hashtbl.t;  (* tid -> thread index *)
  l_base : int array;                (* thread index -> first node id *)
  l_node : node array;               (* node id -> node *)
  l_thr : int array;                 (* node id -> thread index *)
  l_edges : edge array;              (* edge index -> skeleton edge *)
  l_src : int array;                 (* edge index -> source node id *)
  l_fj : graph;
  l_full : graph;
  l_locks : Lockid.t list array;     (* lockset rank -> sorted locks *)
  l_entries : entry Itbl.t;          (* Var.key Fine -> entry *)
}

type summary = {
  threads : int;
  skeleton : skeleton;
  sp : Dpst.t option;
      (* the series-parallel decomposition, when the program uses the
         async-finish tier *)
  entries : entry list;
  findings : finding list;
  total_accesses : int;
  certified_accesses : int;
  labels : labels;
}

(* Asyncs per spawning thread beyond which the fanout lint fires: a
   task pool spawning hundreds of statically-enumerated siblings is
   almost always a loop the DSL should express at a coarser grain. *)
let fanout_limit = 64

(* ------------------------------------------------------------------ *)
(* The vector-clock-labelled skeleton.                                *)

(* Label one graph.  A Kahn pass in topological order pushes each
   node's clock into its successors (entry-wise max); nodes left
   unvisited lie on or behind a cycle (Join_before_fork and mutual
   joins make the skeleton cyclic), and the same push is repeated over
   them until nothing changes.  A raise needs a strict increase, so the
   raiser chains stay loop-free. *)
let label ~nthr ~node ~thr ~src ~dst ~keep =
  let nodes = Array.length node in
  let succ = Array.make nodes [] in
  let indeg = Array.make nodes 0 in
  for v = 0 to nodes - 1 do
    if node.(v).n_seg > 0 then indeg.(v) <- 1
  done;
  Array.iteri
    (fun k s ->
      if keep k then begin
        succ.(s) <- k :: succ.(s);
        indeg.(dst.(k)) <- indeg.(dst.(k)) + 1
      end)
    src;
  let clk = Array.make (nodes * nthr) (-1) in
  let by = Array.make (nodes * nthr) (-1) in
  for v = 0 to nodes - 1 do
    clk.((v * nthr) + thr.(v)) <- node.(v).n_seg
  done;
  let push u v r =
    let ou = u * nthr and ov = v * nthr in
    let raised = ref false in
    for i = 0 to nthr - 1 do
      let c = clk.(ou + i) in
      if c > clk.(ov + i) then begin
        clk.(ov + i) <- c;
        by.(ov + i) <- r;
        raised := true
      end
    done;
    !raised
  in
  let iter_succs u f =
    if u + 1 < nodes && thr.(u + 1) = thr.(u) then f (u + 1) (-2);
    List.iter (fun k -> f dst.(k) k) succ.(u)
  in
  let queue = Array.make nodes 0 and head = ref 0 and tail = ref 0 in
  let enqueue v =
    queue.(!tail) <- v;
    incr tail
  in
  for v = 0 to nodes - 1 do
    if indeg.(v) = 0 then enqueue v
  done;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    iter_succs u (fun v r ->
        ignore (push u v r);
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then enqueue v)
  done;
  if !tail < nodes then begin
    (* The unvisited nodes are those with in-degree left.  Every
       predecessor of a visited node was visited, so they only push
       among themselves. *)
    let changed = ref true in
    while !changed do
      changed := false;
      for u = 0 to nodes - 1 do
        if indeg.(u) > 0 then
          iter_succs u (fun v r -> if push u v r then changed := true)
      done
    done
  end;
  { g_clk = clk; g_by = by }

let labels_of_skeleton sk ~locks =
  let segs = Array.of_list sk.sk_segs in
  let nthr = Array.length segs in
  let base = Array.make (nthr + 1) 0 in
  Array.iteri (fun i (_, ns) -> base.(i + 1) <- base.(i) + ns) segs;
  let nodes = base.(nthr) in
  let node = Array.make nodes { n_tid = 0; n_seg = 0 } in
  let thr = Array.make nodes 0 in
  let index = Hashtbl.create (max 1 nthr) in
  Array.iteri
    (fun i (t, ns) ->
      Hashtbl.replace index t i;
      for s = 0 to ns - 1 do
        node.(base.(i) + s) <- { n_tid = t; n_seg = s };
        thr.(base.(i) + s) <- i
      done)
    segs;
  let id n = base.(Hashtbl.find index n.n_tid) + n.n_seg in
  let edges = Array.of_list sk.sk_edges in
  let src = Array.map (fun e -> id e.e_from) edges in
  let dst = Array.map (fun e -> id e.e_to) edges in
  let label = label ~nthr ~node ~thr ~src ~dst in
  { l_threads = nthr;
    l_index = index;
    l_base = base;
    l_node = node;
    l_thr = thr;
    l_edges = edges;
    l_src = src;
    l_fj =
      label ~keep:(fun k ->
          match edges.(k).e_kind with Barrier_edge _ -> false | _ -> true);
    l_full = label ~keep:(fun _ -> true);
    l_locks = locks;
    l_entries = Itbl.create 64 }

(* The node id of [n], or -1 outside the skeleton. *)
let node_id l n =
  match Hashtbl.find_opt l.l_index n.n_tid with
  | Some i when n.n_seg >= 0 && n.n_seg < l.l_base.(i + 1) - l.l_base.(i) ->
    l.l_base.(i) + n.n_seg
  | _ -> -1

let reaches_id l g a b =
  g.g_clk.((b * l.l_threads) + l.l_thr.(a)) >= l.l_node.(a).n_seg

(* The inter-thread edges of a witness path from [a] to [b], as edge
   indices (program order glues the rest; the certificate checker
   re-checks it): follow the raisers of [a]'s thread entry back from
   [b] until the first node of [a]'s thread at or after [a]. *)
let chain l g a b =
  let i = l.l_thr.(a) and sa = l.l_node.(a).n_seg in
  let rec back v acc =
    if l.l_thr.(v) = i && l.l_node.(v).n_seg >= sa then acc
    else
      let r = g.g_by.((v * l.l_threads) + i) in
      if r = -2 then back (v - 1) acc else back l.l_src.(r) (r :: acc)
  in
  Array.of_list (back b [])

(* ------------------------------------------------------------------ *)
(* Classification.                                                    *)

(* A site is packed into one int [((node * 2 + write) * locksets) +
   lockset rank], where ranks order the interned locksets like
   [compare] on their sorted lock lists: ascending keys give the site
   order of [List.sort compare] over site records. *)
let key_node l k = k / (2 * Array.length l.l_locks)
let key_write l k = (k / Array.length l.l_locks) land 1 = 1
let key_rank l k = k mod Array.length l.l_locks

(* The node ids of a sorted key array, split into write nodes (some
   write site) and read nodes (read sites only), both ascending. *)
let split_nodes l keys =
  let n = Array.length keys in
  let ws = Array.make n 0 and rs = Array.make n 0 in
  let nw = ref 0 and nr = ref 0 in
  let i = ref 0 in
  while !i < n do
    let v = key_node l keys.(!i) in
    let w = ref false in
    while !i < n && key_node l keys.(!i) = v do
      if key_write l keys.(!i) then w := true;
      incr i
    done;
    if !w then begin
      ws.(!nw) <- v;
      incr nw
    end
    else begin
      rs.(!nr) <- v;
      incr nr
    end
  done;
  (Array.sub ws 0 !nw, Array.sub rs 0 !nr)

(* The epoch shape of an ordering proof (the paper's Section 3: on a
   race-free variable the writes are totally ordered, so one epoch
   stands in for a vector clock).  [before a b] is the ordering
   relation on node ids (reflexive on program order, transitive).
   Sort the write nodes by it and check that each consecutive pair is
   ordered; place each read node by binary search after the last write
   that is ordered before it, and check that it is ordered before the
   next one.  If every check passes, transitivity orders every write
   pair and every write-read pair.  Conversely, if every conflicting
   pair is ordered then so is every pair of these nodes (same-thread
   pairs by program order), the comparator is a total preorder and
   every check passes — so this decides exactly "all conflicting pairs
   ordered".  Returns the sorted writes and, per read, the index of the
   write before it (-1: none). *)
let epochs ~before ws rs =
  let m = Array.length ws in
  let ws = Array.copy ws in
  Array.stable_sort
    (fun a b ->
      if a = b then 0
      else
        match (before a b, before b a) with
        | true, false -> -1
        | false, true -> 1
        | _ -> Int.compare a b (* one strongly connected class *))
    ws;
  let rec writes_ok i = i + 1 >= m || (before ws.(i) ws.(i + 1) && writes_ok (i + 1)) in
  if not (writes_ok 0) then None
  else begin
    let place r =
      (* the last write ordered before [r]: writes before it form a
         prefix whenever the proof exists *)
      let lo = ref (-1) and hi = ref m in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if before ws.(mid) r then lo := mid else hi := mid
      done;
      !lo
    in
    let after = Array.map place rs in
    let ok = ref true in
    Array.iteri
      (fun j k -> if k + 1 < m && not (before rs.(j) ws.(k + 1)) then ok := false)
      after;
    if !ok then Some (ws, after) else None
  end

let order_of l ~chain (ws, after) rs =
  let m = Array.length ws in
  let nd v = l.l_node.(v) in
  { o_writes = Array.map nd ws;
    o_steps = Array.init (max 0 (m - 1)) (fun i -> chain ws.(i) ws.(i + 1));
    o_reads =
      Array.mapi
        (fun j r ->
          let k = after.(j) in
          { k_read = nd r;
            k_after = k;
            k_in = (if k >= 0 then chain ws.(k) r else [||]);
            k_out = (if k + 1 < m then chain r ws.(k + 1) else [||]) })
        rs }

(* The verdict of a sorted, duplicate-free site-key array, and a thunk
   building its certificate: ordering is a property of program points,
   so the sites collapse to write and read nodes and the verdict is
   decided on the epoch shape before any chain is built. *)
let classify l sp keys =
  let n = Array.length keys in
  let tid k = l.l_node.(key_node l k).n_tid in
  if n = 0 then (May_race, fun () -> None)
  else if Tid.equal (tid keys.(0)) (tid keys.(n - 1)) then
    let t = tid keys.(0) in
    match sp with
    | Some d when Dpst.is_task d t ->
      (Task_local t, fun () -> Some (Cert_task_local t))
    | _ -> (Thread_local t, fun () -> Some (Cert_thread_local t))
  else if not (Array.exists (key_write l) keys) then
    (Read_only, fun () -> Some Cert_read_only)
  else begin
    (* the locks every site holds, in the first site's order *)
    let common = ref l.l_locks.(key_rank l keys.(0)) in
    let last = ref (key_rank l keys.(0)) in
    Array.iter
      (fun k ->
        let r = key_rank l k in
        if r <> !last && !common <> [] then begin
          last := r;
          common := List.filter (fun m -> List.mem m l.l_locks.(r)) !common
        end)
      keys;
    match !common with
    | m :: _ -> (Lock_protected m, fun () -> Some (Cert_lock_protected m))
    | [] -> (
      let ws, rs = split_nodes l keys in
      let point v = (l.l_node.(v).n_tid, l.l_node.(v).n_seg) in
      let sp_shape =
        match sp with
        | Some d ->
          epochs ~before:(fun a b -> Dpst.ordered_before d (point a) (point b)) ws rs
        | None -> None
      in
      match sp_shape with
      | Some shape ->
        ( Sp_ordered,
          fun () -> Some (Cert_sp_ordered (order_of l ~chain:(fun _ _ -> [||]) shape rs)) )
      | None -> (
        let graph_shape g = epochs ~before:(reaches_id l g) ws rs in
        let cert g barrier shape () =
          Some
            (Cert_ordered
               { c_barrier = barrier; c_order = order_of l ~chain:(chain l g) shape rs })
        in
        match graph_shape l.l_fj with
        | Some shape -> (Fork_join_ordered, cert l.l_fj false shape)
        | None -> (
          match graph_shape l.l_full with
          | Some shape -> (Barrier_phased, cert l.l_full true shape)
          | None -> (May_race, fun () -> None))))
  end

(* ------------------------------------------------------------------ *)
(* The abstract interpreter (one walk per thread body).               *)

(* Everything one thread's walk learns. *)
type walk = {
  w_tid : Tid.t;
  w_nsegs : int;
  w_forks : (Tid.t * int) list;   (* target, segment before the fork *)
  w_joins : (Tid.t * int) list;   (* target, segment after the join *)
  w_bwaits : (int * int) list;    (* barrier, segment before the wait *)
  w_shapes : Dpst.shape list;     (* segment-boundary structure *)
  w_asyncs : (Tid.t * bool) list; (* target, spawned inside a finish *)
  w_scopes : Tid.t list list;     (* direct registrations per finish *)
  w_join_targets : Tid.t list;
}

(* One variable's sites during the walk: [a_sites.(2j)] is a walk key
   [(node lsl 32) lor (lockset id lsl 1) lor write] (node ids stay below
   2^30 and lockset ids below 2^31) and [a_sites.(2j + 1)] its access
   count. *)
type acc = { a_var : Var.t; mutable a_sites : int array; mutable a_n : int }

let compare_node a b =
  match Tid.compare a.n_tid b.n_tid with 0 -> Int.compare a.n_seg b.n_seg | c -> c

(* The order of [compare] on edge kinds: constant constructors first. *)
let compare_kind a b =
  let rank = function Po -> 0 | Fork_edge -> 1 | Join_edge -> 2 | Barrier_edge _ -> 3 in
  match (a, b) with
  | Barrier_edge a, Barrier_edge b -> (
    match Int.compare a.barrier b.barrier with
    | 0 -> Int.compare a.round b.round
    | c -> c)
  | _ -> Int.compare (rank a) (rank b)

let compare_edge a b =
  match compare_node a.e_from b.e_from with
  | 0 -> (
    match compare_node a.e_to b.e_to with 0 -> compare_kind a.e_kind b.e_kind | c -> c)
  | c -> c

let analyze (p : Program.t) =
  let threads = p.Program.threads in
  let known = Hashtbl.create 16 in
  List.iter
    (fun (th : Program.thread) -> Hashtbl.replace known th.Program.tid ())
    threads;
  let parties_of = Hashtbl.create 8 in
  List.iter
    (fun (b : Program.barrier) ->
      Hashtbl.replace parties_of b.Program.id b.Program.parties)
    p.Program.barriers;
  let findings = ref [] in
  let fseen = Hashtbl.create 16 in
  let finding ?tid kind =
    let f = { f_tid = tid; f_kind = kind } in
    if not (Hashtbl.mem fseen f) then begin
      Hashtbl.replace fseen f ();
      findings := f :: !findings
    end
  in
  (* Lock-order graph: an edge m1 -> m2 when some thread acquires m2
     (or re-acquires it inside a wait) while holding m1.  Edges carry
     their contributing threads: a cycle walked entirely by one thread
     cannot deadlock — its acquisitions are sequential in program
     order — so only cycles with two or more contributors alarm. *)
  let lock_edges : (Lockid.t * Lockid.t, (Tid.t, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let lock_edge ~tid m1 m2 =
    let tids =
      match Hashtbl.find_opt lock_edges (m1, m2) with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.replace lock_edges (m1, m2) h;
        h
    in
    Hashtbl.replace tids tid ()
  in
  (* Per-variable sites, keyed by [Var.key Fine].  Threads are walked in
     ascending tid order, so node ids ([base of the thread + segment])
     never decrease during the walk: a variable's sites are appended in
     node order, and a site already seen can only sit in the run of its
     own node at the end.  Loops hit the same variable and site back to
     back, which a one-entry cache serves without a lookup. *)
  let vars : acc Itbl.t = Itbl.create 64 in
  let locksets : (Lockid.t list, int) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace locksets [] 0;
  let total = ref 0 in
  let last_var = ref (-1) in
  let last_acc = ref { a_var = Var.scalar 0; a_sites = [||]; a_n = 0 } in
  let last_slot = ref (-1) in
  let record_access x wk =
    incr total;
    let key = Var.key Var.Fine x in
    if key <> !last_var then begin
      last_var := key;
      last_slot := -1;
      last_acc :=
        match Itbl.find_opt vars key with
        | Some a -> a
        | None ->
          let a = { a_var = x; a_sites = Array.make 4 0; a_n = 0 } in
          Itbl.add vars key a;
          a
    end;
    let a = !last_acc in
    let s = a.a_sites in
    if !last_slot >= 0 && s.(!last_slot) = wk then
      s.(!last_slot + 1) <- s.(!last_slot + 1) + 1
    else begin
      let node = wk lsr 32 in
      let j = ref (a.a_n - 1) in
      while !j >= 0 && s.(2 * !j) <> wk && s.(2 * !j) lsr 32 = node do
        decr j
      done;
      if !j >= 0 && s.(2 * !j) = wk then begin
        s.((2 * !j) + 1) <- s.((2 * !j) + 1) + 1;
        last_slot := 2 * !j
      end
      else begin
        if 2 * a.a_n = Array.length s then begin
          let grown = Array.make (2 * Array.length s) 0 in
          Array.blit s 0 grown 0 (Array.length s);
          a.a_sites <- grown
        end;
        let slot = 2 * a.a_n in
        a.a_sites.(slot) <- wk;
        a.a_sites.(slot + 1) <- 1;
        a.a_n <- a.a_n + 1;
        last_slot := slot
      end
    end
  in
  let base = ref 0 in
  let walk_thread (th : Program.thread) =
    let tid = th.Program.tid in
    let seg = ref 0 in
    let held = Hashtbl.create 8 in
    let cur_locks = ref [] in
    let cur_lockset = ref 0 in
    (* the walk key of a read at the current point *)
    let cur_site = ref (!base lsl 32) in
    let resite () = cur_site := ((!base + !seg) lsl 32) lor (!cur_lockset lsl 1) in
    let recompute () =
      cur_locks :=
        Hashtbl.fold (fun m c acc -> if c > 0 then m :: acc else acc) held []
        |> List.sort Lockid.compare;
      cur_lockset :=
        (match Hashtbl.find_opt locksets !cur_locks with
        | Some i -> i
        | None ->
          let i = Hashtbl.length locksets in
          Hashtbl.replace locksets !cur_locks i;
          i);
      resite ()
    in
    let next_seg () =
      incr seg;
      resite ()
    in
    let forks = ref [] and joins = ref [] and bwaits = ref [] in
    let shapes = ref [] in
    let asyncs = ref [] in
    let scopes = ref [] in
    let scope_stack = ref [] in
    let join_targets = ref [] in
    let forked_here = Hashtbl.create 4 in
    (* joins of threads not yet forked here: Join_before_fork if this
       body forks them later *)
    let early_joins = ref [] in
    (* The segment-boundary discipline below (where [seg] is read
       vs incremented) is load-bearing: the scheduler's event
       order, the DPST leaves, and [access_segments] all mirror
       it. *)
    let rec walk in_finish stmts =
      List.iter
        (fun stmt ->
          match stmt with
          | Program.Read x -> record_access x !cur_site
          | Program.Write x -> record_access x (!cur_site lor 1)
          | Program.Acquire m ->
            let c = Option.value ~default:0 (Hashtbl.find_opt held m) in
            if c = 0 then
              List.iter (fun h -> lock_edge ~tid h m) !cur_locks;
            Hashtbl.replace held m (c + 1);
            if c = 0 then recompute ()
          | Program.Release m ->
            let c = Option.value ~default:0 (Hashtbl.find_opt held m) in
            if c = 0 then finding ~tid (Release_without_hold m)
            else begin
              Hashtbl.replace held m (c - 1);
              if c = 1 then recompute ()
            end
          | Program.Wait m ->
            (* wait releases and re-acquires [m]; the lockset after
               the statement is unchanged, but the thread must hold
               the monitor going in *)
            if Option.value ~default:0 (Hashtbl.find_opt held m) = 0 then
              finding ~tid (Wait_without_monitor m)
            else
              (* the wakeup re-acquires [m] while every other held
                 lock stays held — the same ordering constraint as a
                 fresh acquisition *)
              List.iter
                (fun h ->
                  if not (Lockid.equal h m) then lock_edge ~tid h m)
                !cur_locks
          | Program.Fork u ->
            Hashtbl.replace forked_here u ();
            forks := (u, !seg) :: !forks;
            shapes := Dpst.Sp_spawn u :: !shapes;
            next_seg ()
          | Program.Async u ->
            asyncs := (u, in_finish) :: !asyncs;
            (match !scope_stack with
            | tasks :: _ -> tasks := u :: !tasks
            | [] -> ());
            shapes := Dpst.Sp_spawn u :: !shapes;
            next_seg ()
          | Program.Finish body ->
            shapes := Dpst.Sp_open :: !shapes;
            next_seg ();
            scope_stack := ref [] :: !scope_stack;
            walk true body;
            (match !scope_stack with
            | tasks :: rest ->
              scopes := List.rev !tasks :: !scopes;
              scope_stack := rest
            | [] -> assert false);
            shapes := Dpst.Sp_close :: !shapes;
            next_seg ()
          | Program.Join u ->
            if not (Hashtbl.mem known u) then
              finding ~tid (Join_of_unknown u)
            else begin
              if not (Hashtbl.mem forked_here u) then
                early_joins := u :: !early_joins;
              join_targets := u :: !join_targets;
              shapes := Dpst.Sp_cut :: !shapes;
              next_seg ();
              joins := (u, !seg) :: !joins
            end
          | Program.Barrier_wait b ->
            if not (Hashtbl.mem parties_of b) then
              finding ~tid (Unknown_barrier b);
            bwaits := (b, !seg) :: !bwaits;
            shapes := Dpst.Sp_cut :: !shapes;
            next_seg ()
          | Program.Volatile_read _ | Program.Volatile_write _
          | Program.Txn_begin | Program.Txn_end ->
            ())
        stmts
    in
    walk false th.Program.body;
    Hashtbl.iter
      (fun m c -> if c > 0 then finding ~tid (Lock_never_released m))
      held;
    List.iter
      (fun u -> if Hashtbl.mem forked_here u then finding ~tid (Join_before_fork u))
      !early_joins;
    base := !base + !seg + 1;
    { w_tid = tid;
      w_nsegs = !seg + 1;
      w_forks = List.rev !forks;
      w_joins = List.rev !joins;
      w_bwaits = List.rev !bwaits;
      w_shapes = List.rev !shapes;
      w_asyncs = List.rev !asyncs;
      w_scopes = List.rev !scopes;
      w_join_targets = List.rev !join_targets }
  in
  (* Walk in ascending tid order (node order); keep the program's
     thread order for everything downstream. *)
  let walk_of = Hashtbl.create 16 in
  List.iter
    (fun (th : Program.thread) ->
      Hashtbl.replace walk_of th.Program.tid (walk_thread th))
    (List.stable_sort
       (fun (a : Program.thread) (b : Program.thread) ->
         Tid.compare a.Program.tid b.Program.tid)
       threads);
  let walks =
    List.map (fun (th : Program.thread) -> Hashtbl.find walk_of th.Program.tid) threads
  in
  (* Spawn multiplicity over both tiers (a duplicate spawn makes the
     target's start ambiguous — lint and drop the fork edge / detach
     the task in the DPST) and the set of async-spawned threads (the
     "tasks"). *)
  let fork_count = Hashtbl.create 16 in
  let async_targets = Hashtbl.create 16 in
  let spawned u =
    Hashtbl.replace fork_count u
      (1 + Option.value ~default:0 (Hashtbl.find_opt fork_count u))
  in
  List.iter
    (fun w ->
      List.iter (fun (u, _) -> spawned u) w.w_forks;
      List.iter
        (fun (u, _) ->
          spawned u;
          Hashtbl.replace async_targets u ())
        w.w_asyncs)
    walks;
  Hashtbl.iter (fun u c -> if c > 1 then finding (Duplicate_fork u)) fork_count;
  List.iter
    (fun w ->
      List.iter
        (fun u ->
          if Hashtbl.mem async_targets u then finding ~tid:w.w_tid (Join_of_task u))
        w.w_join_targets)
    walks;
  (* Deadlock-cycle lint: Tarjan SCCs over the lock-order graph.  Any
     SCC with two or more locks contains a cycle (no self-loops: a
     re-entrant acquisition adds no edge), and inside one SCC every
     internal edge lies on a cycle, so the contributing threads of the
     internal edges are exactly the threads that can interleave into
     the deadlock. *)
  let () =
    let ids = Hashtbl.create 16 in
    let locks_rev = ref [] in
    let nlocks = ref 0 in
    let id_of m =
      match Hashtbl.find_opt ids m with
      | Some i -> i
      | None ->
        let i = !nlocks in
        Hashtbl.replace ids m i;
        locks_rev := m :: !locks_rev;
        incr nlocks;
        i
    in
    Hashtbl.iter
      (fun (a, b) _ ->
        ignore (id_of a);
        ignore (id_of b))
      lock_edges;
    let n = !nlocks in
    let lock_of = Array.of_list (List.rev !locks_rev) in
    let succs = Array.make (max 1 n) [] in
    Hashtbl.iter
      (fun (a, b) _ ->
        let ia = id_of a in
        succs.(ia) <- id_of b :: succs.(ia))
      lock_edges;
    let index = Array.make (max 1 n) (-1) in
    let low = Array.make (max 1 n) 0 in
    let on_stack = Array.make (max 1 n) false in
    let stack = ref [] in
    let counter = ref 0 in
    let sccs = ref [] in
    let rec strong v =
      index.(v) <- !counter;
      low.(v) <- !counter;
      incr counter;
      stack := v :: !stack;
      on_stack.(v) <- true;
      List.iter
        (fun w ->
          if index.(w) < 0 then begin
            strong w;
            low.(v) <- min low.(v) low.(w)
          end
          else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
        succs.(v);
      if low.(v) = index.(v) then begin
        let rec pop acc =
          match !stack with
          | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
          | [] -> acc
        in
        sccs := pop [] :: !sccs
      end
    in
    for v = 0 to n - 1 do
      if index.(v) < 0 then strong v
    done;
    List.iter
      (fun scc ->
        match scc with
        | [] | [ _ ] -> ()
        | _ ->
          let memb = Hashtbl.create 8 in
          List.iter (fun v -> Hashtbl.replace memb v ()) scc;
          let tids = Hashtbl.create 8 in
          Hashtbl.iter
            (fun (a, b) contrib ->
              if
                Hashtbl.mem memb (Hashtbl.find ids a)
                && Hashtbl.mem memb (Hashtbl.find ids b)
              then Hashtbl.iter (fun t () -> Hashtbl.replace tids t ()) contrib)
            lock_edges;
          if Hashtbl.length tids >= 2 then
            finding
              (Lock_order_cycle
                 { locks =
                     List.sort Lockid.compare
                       (List.map (fun v -> lock_of.(v)) scc) }))
      !sccs
  in
  let nsegs_of = Hashtbl.create 16 in
  List.iter (fun w -> Hashtbl.replace nsegs_of w.w_tid w.w_nsegs) walks;
  let edges = ref [] in
  let add_edge f t k = edges := { e_from = f; e_to = t; e_kind = k } :: !edges in
  List.iter
    (fun w ->
      let t = w.w_tid in
      List.iter
        (fun (u, s) ->
          if Hashtbl.find_opt fork_count u = Some 1 then
            add_edge { n_tid = t; n_seg = s } { n_tid = u; n_seg = 0 } Fork_edge)
        w.w_forks;
      List.iter
        (fun (u, s) ->
          match Hashtbl.find_opt nsegs_of u with
          | Some ns ->
            (* join returns only after [u]'s last statement *)
            add_edge { n_tid = u; n_seg = ns - 1 } { n_tid = t; n_seg = s }
              Join_edge
          | None -> ())
        w.w_joins)
    walks;
  (* Barrier edges: sound only when the wait structure is
     deterministic — exactly [parties] participating threads, all with
     the same wait count; then the k-th fill provably involves every
     thread's k-th wait (a thread is blocked at its earliest
     unreleased wait, so by induction on fills). *)
  let bar_tbl : (int, (int, int list ref) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun w ->
      let t = w.w_tid in
      List.iter
        (fun (b, pre) ->
          let per_tid =
            match Hashtbl.find_opt bar_tbl b with
            | Some h -> h
            | None ->
              let h = Hashtbl.create 8 in
              Hashtbl.replace bar_tbl b h;
              h
          in
          let l =
            match Hashtbl.find_opt per_tid t with
            | Some l -> l
            | None ->
              let l = ref [] in
              Hashtbl.replace per_tid t l;
              l
          in
          l := pre :: !l)
        w.w_bwaits)
    walks;
  Hashtbl.iter
    (fun b per_tid ->
      match Hashtbl.find_opt parties_of b with
      | None -> () (* Unknown_barrier already linted during the walk *)
      | Some parties ->
        let parts =
          Hashtbl.fold (fun t l acc -> (t, Array.of_list (List.rev !l)) :: acc)
            per_tid []
          |> List.sort (fun (a, _) (b, _) -> Tid.compare a b)
        in
        let participants = List.length parts in
        if participants <> parties then
          finding (Barrier_party_mismatch { barrier = b; parties; participants })
        else begin
          let rounds = Array.length (snd (List.hd parts)) in
          if List.exists (fun (_, a) -> Array.length a <> rounds) parts then
            finding (Barrier_round_mismatch { barrier = b })
          else
            for k = 0 to rounds - 1 do
              List.iter
                (fun (t1, a1) ->
                  List.iter
                    (fun (t2, a2) ->
                      if t1 <> t2 then
                        add_edge
                          { n_tid = t1; n_seg = a1.(k) }
                          { n_tid = t2; n_seg = a2.(k) + 1 }
                          (Barrier_edge { barrier = b; round = k }))
                    parts)
                parts
            done
        end)
    bar_tbl;
  let skeleton =
    { sk_segs =
        List.map (fun w -> (w.w_tid, w.w_nsegs)) walks
        |> List.sort (fun (a, _) (b, _) -> Tid.compare a b);
      sk_edges = List.sort compare_edge !edges }
  in
  (* ---- async-finish tier: structure lints + the DPST -------------- *)
  let has_tasks =
    List.exists
      (fun w ->
        w.w_asyncs <> []
        || List.exists (fun sh -> sh = Dpst.Sp_open) w.w_shapes)
      walks
  in
  if has_tasks then begin
    (* fanout: statically enumerated sibling tasks per spawner *)
    List.iter
      (fun w ->
        let count = List.length w.w_asyncs in
        if count > fanout_limit then
          finding ~tid:w.w_tid
            (Unbounded_task_fanout { tid = w.w_tid; count; limit = fanout_limit }))
      walks;
    (* escape analysis: an async spawned outside any finish registers
       with the scope its spawner was registered with — or with no
       scope at all if that chain never meets a finish.  Root and
       fork-tier spawners have no inherited scope, so their bare
       asyncs escape; a task's bare asyncs escape iff the task itself
       does. *)
    let escape_memo = Hashtbl.create 16 in
    let rec thread_escapes t =
      match Hashtbl.find_opt escape_memo t with
      | Some b -> b
      | None ->
        Hashtbl.replace escape_memo t true (* cycle guard: assume escape *);
        let b =
          if not (Hashtbl.mem async_targets t) then true
          else
            (* a task escapes iff some spawn site of it escapes *)
            List.exists
              (fun w ->
                List.exists
                  (fun (u, in_fin) ->
                    Tid.equal u t && (not in_fin) && thread_escapes w.w_tid)
                  w.w_asyncs)
              walks
        in
        Hashtbl.replace escape_memo t b;
        b
    in
    List.iter
      (fun w ->
        List.iter
          (fun (u, in_fin) ->
            if (not in_fin) && thread_escapes w.w_tid then
              finding ~tid:w.w_tid (Async_escapes_finish u))
          w.w_asyncs)
      walks;
    (* provable non-termination: a finish scope cannot close while a
       task (transitively) registered with it joins the scope's owner
       — the owner is blocked at the close waiting for that task *)
    let bare_asyncs_of t =
      match Hashtbl.find_opt walk_of t with
      | Some w ->
        List.filter_map
          (fun (u, in_fin) -> if in_fin then None else Some u)
          w.w_asyncs
      | None -> []
    in
    let closure direct =
      let seen = Hashtbl.create 8 in
      let rec go u =
        if not (Hashtbl.mem seen u) then begin
          Hashtbl.replace seen u ();
          List.iter go (bare_asyncs_of u)
        end
      in
      List.iter go direct;
      Hashtbl.fold (fun u () acc -> u :: acc) seen []
      |> List.sort Tid.compare
    in
    List.iter
      (fun w ->
        let owner = w.w_tid in
        List.iter
          (fun direct ->
            List.iter
              (fun task ->
                match Hashtbl.find_opt walk_of task with
                | Some tw when List.mem owner tw.w_join_targets ->
                  finding ~tid:owner (Finish_never_closed { owner; task })
                | _ -> ())
              (closure direct))
          w.w_scopes)
      walks
  end;
  let sp =
    if has_tasks then
      Some
        (Dpst.build ~roots:p.Program.roots
           ~task_tids:(Hashtbl.fold (fun u () acc -> u :: acc) async_targets [])
           ~threads:(List.map (fun w -> (w.w_tid, w.w_nsegs, w.w_shapes)) walks))
    else None
  in
  (* Rank the interned locksets like [compare] on their lock lists. *)
  let nls = Hashtbl.length locksets in
  let lists = Array.make nls [] in
  Hashtbl.iter (fun ls i -> lists.(i) <- ls) locksets;
  let by_rank = Array.init nls Fun.id in
  Array.sort (fun a b -> compare lists.(a) lists.(b)) by_rank;
  let rank = Array.make nls 0 in
  Array.iteri (fun r i -> rank.(i) <- r) by_rank;
  let l =
    labels_of_skeleton skeleton ~locks:(Array.map (fun i -> lists.(i)) by_rank)
  in
  (* A variable's packed keys, ascending.  Walk keys arrive in node
     order; only the write bit and the lockset rank inside one node can
     be out of order, which an insertion sort fixes in place. *)
  let keys_of a =
    let n = a.a_n in
    let keys = Array.make n 0 and counts = Array.make n 0 in
    for j = 0 to n - 1 do
      let wk = a.a_sites.(2 * j) in
      let k =
        ((((wk lsr 32) * 2) + (wk land 1)) * nls)
        + rank.((wk lsr 1) land 0x7fff_ffff)
      and c = a.a_sites.((2 * j) + 1) in
      let i = ref j in
      while !i > 0 && keys.(!i - 1) > k do
        keys.(!i) <- keys.(!i - 1);
        counts.(!i) <- counts.(!i - 1);
        decr i
      done;
      keys.(!i) <- k;
      counts.(!i) <- c
    done;
    (keys, counts)
  in
  (* Fields of one object typically share a site signature (same
     loops, same locks), so classification is memoized on the sorted
     key array; entries of one signature share its keys and
     certificate. *)
  let memo = Ktbl.create 64 in
  let entries =
    Itbl.fold (fun key a acc -> (key, a) :: acc) vars []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (key, a) ->
           let keys, counts = keys_of a in
           let keys, verdict, cert =
             match Ktbl.find_opt memo keys with
             | Some shared -> shared
             | None ->
               let verdict, cert = classify l sp keys in
               let shared = (keys, verdict, cert ()) in
               Ktbl.replace memo keys shared;
               shared
           in
           let e =
             { e_var = a.a_var;
               e_verdict = verdict;
               e_cert = cert;
               e_keys = keys;
               e_counts = counts;
               e_accesses = Array.fold_left ( + ) 0 counts }
           in
           Itbl.replace l.l_entries key e;
           e)
  in
  let certified_accesses =
    List.fold_left
      (fun acc e -> if e.e_verdict <> May_race then acc + e.e_accesses else acc)
      0 entries
  in
  { threads = List.length threads;
    skeleton;
    sp;
    entries;
    findings = List.sort compare !findings;
    total_accesses = !total;
    certified_accesses;
    labels = l }

(* ------------------------------------------------------------------ *)
(* Queries.                                                           *)

let verdict_of summary x =
  match Itbl.find_opt summary.labels.l_entries (Var.key Var.Fine x) with
  | Some e -> e.e_verdict
  | None -> May_race

let certified summary x = verdict_of summary x <> May_race

let sites summary e =
  let l = summary.labels in
  List.init (Array.length e.e_keys) (fun r ->
      let k = e.e_keys.(r) in
      let v = l.l_node.(key_node l k) in
      { s_tid = v.n_tid;
        s_seg = v.n_seg;
        s_write = key_write l k;
        s_locks = l.l_locks.(key_rank l k);
        s_count = e.e_counts.(r) })

let reaches summary ~barriers a b =
  let l = summary.labels in
  let id n =
    match node_id l n with
    | -1 ->
      invalid_arg
        (Printf.sprintf "Static.reaches: t%d/s%d is not a skeleton node"
           n.n_tid n.n_seg)
    | v -> v
  in
  reaches_id l (if barriers then l.l_full else l.l_fj) (id a) (id b)

let elimination_ratio summary =
  if summary.total_accesses = 0 then 0.
  else
    float_of_int summary.certified_accesses
    /. float_of_int summary.total_accesses

let mhp summary a b =
  if Tid.equal a.n_tid b.n_tid then false (* program order *)
  else
    match summary.sp with
    | Some d -> Dpst.mhp d (a.n_tid, a.n_seg) (b.n_tid, b.n_seg)
    | None -> true (* no task tier: claim parallel (conservative) *)

(* The per-access segment ids of every thread, in statement order —
   the bridge from trace events (the k-th access of thread t) to DPST
   steps.  Mirrors the walk's segment-boundary discipline exactly. *)
let access_segments (p : Program.t) =
  let known = Hashtbl.create 16 in
  List.iter
    (fun (th : Program.thread) -> Hashtbl.replace known th.Program.tid ())
    p.Program.threads;
  List.map
    (fun (th : Program.thread) ->
      let seg = ref 0 in
      let accs = ref [] in
      let rec go stmts =
        List.iter
          (fun stmt ->
            match stmt with
            | Program.Read _ | Program.Write _ -> accs := !seg :: !accs
            | Program.Fork _ | Program.Async _ -> incr seg
            | Program.Join u -> if Hashtbl.mem known u then incr seg
            | Program.Barrier_wait _ -> incr seg
            | Program.Finish body ->
              incr seg;
              go body;
              incr seg
            | Program.Acquire _ | Program.Release _ | Program.Wait _
            | Program.Volatile_read _ | Program.Volatile_write _
            | Program.Txn_begin | Program.Txn_end ->
              ())
          stmts
      in
      go th.Program.body;
      (th.Program.tid, Array.of_list (List.rev !accs)))
    p.Program.threads

(* ------------------------------------------------------------------ *)
(* Certificate checking.                                              *)

let verdict_name = function
  | Thread_local _ -> "thread_local"
  | Task_local _ -> "task_local"
  | Read_only -> "read_only"
  | Lock_protected _ -> "lock_protected"
  | Sp_ordered -> "sp_ordered"
  | Fork_join_ordered -> "fork_join_ordered"
  | Barrier_phased -> "barrier_phased"
  | May_race -> "may_race"

exception Reject of string

let reject fmt = Format.kasprintf (fun s -> raise (Reject s)) fmt

(* Replays a certificate for the sites [keys] (sorted packed keys)
   against the skeleton's edges and the DPST.  An ordering certificate
   is an epoch shape: every write node once, in an order where each
   write is joined to the next by a path; every read node once, joined
   from the write placed before it and to the write after it.  By
   transitivity that orders every conflicting pair, so coverage is
   checked by the shape alone, in O(nodes log nodes + hops). *)
let replay summary verdict cert keys =
  let l = summary.labels in
  let tid_of k = l.l_node.(key_node l k).n_tid in
  let glue a b = Tid.equal a.n_tid b.n_tid && a.n_seg <= b.n_seg in
  let pp_node ppf n = Format.fprintf ppf "t%d/s%d" n.n_tid n.n_seg in
  (* a path from [a] to [b]: skeleton edges glued by program order *)
  let path ~barrier a b ch =
    let cur =
      Array.fold_left
        (fun cur id ->
          if id < 0 || id >= Array.length l.l_edges then
            reject "edge %d is not a skeleton edge" id;
          let e = l.l_edges.(id) in
          if not (glue cur e.e_from) then
            reject "hop from %a not reached by program order from %a" pp_node
              e.e_from pp_node cur;
          (match e.e_kind with
          | Fork_edge | Join_edge -> ()
          | Barrier_edge _ when barrier -> ()
          | Barrier_edge _ | Po -> reject "illegal hop kind");
          e.e_to)
        a ch
    in
    if not (glue cur b) then
      reject "chain from %a ends at %a, not at %a" pp_node a pp_node cur
        pp_node b
  in
  let series d a b ch =
    if Array.length ch > 0 then reject "sp_ordered certificate carries a chain";
    if not (Dpst.series_check d ~before:(a.n_tid, a.n_seg) ~after:(b.n_tid, b.n_seg))
    then reject "%a is not series-ordered before %a in the DPST" pp_node a pp_node b
  in
  (* the listed nodes must be exactly [expected] (ascending ids) *)
  let same_nodes what listed expected =
    let ids = Array.map (node_id l) listed in
    Array.sort Int.compare ids;
    if not (Array.length ids = Array.length expected && Array.for_all2 Int.equal ids expected)
    then
      reject "the certificate does not list exactly the %s nodes" what
  in
  let check_order ~adjacent o =
    let ws, rs = split_nodes l keys in
    same_nodes "write" o.o_writes ws;
    same_nodes "read" (Array.map (fun k -> k.k_read) o.o_reads) rs;
    let m = Array.length o.o_writes in
    if Array.length o.o_steps <> max 0 (m - 1) then
      reject "%d chain(s) between %d write(s)" (Array.length o.o_steps) m;
    Array.iteri (fun i ch -> adjacent o.o_writes.(i) o.o_writes.(i + 1) ch) o.o_steps;
    Array.iter
      (fun k ->
        if k.k_after < -1 || k.k_after >= m then
          reject "read %a placed after write %d of %d" pp_node k.k_read k.k_after m;
        if k.k_after >= 0 then adjacent o.o_writes.(k.k_after) k.k_read k.k_in
        else if Array.length k.k_in > 0 then reject "chain into a read before every write";
        if k.k_after + 1 < m then adjacent k.k_read o.o_writes.(k.k_after + 1) k.k_out
        else if Array.length k.k_out > 0 then reject "chain out of a read after every write")
      o.o_reads
  in
  let all_sites what p =
    if not (Array.for_all p keys) then reject "an access site %s" what
  in
  try
    match (cert, verdict) with
    | None, May_race -> Ok ()
    | None, v -> reject "verdict %s carries no certificate" (verdict_name v)
    | Some _, May_race -> reject "may_race carries a certificate"
    | Some (Cert_thread_local t), Thread_local t' ->
      if not (Tid.equal t t') then
        reject "certificate names thread %d, verdict names %d" t t';
      all_sites (Printf.sprintf "lies outside thread %d" t) (fun k -> Tid.equal (tid_of k) t);
      Ok ()
    | Some (Cert_task_local t), Task_local t' ->
      if not (Tid.equal t t') then
        reject "certificate names task %d, verdict names %d" t t';
      all_sites (Printf.sprintf "lies outside task %d" t) (fun k -> Tid.equal (tid_of k) t);
      (match summary.sp with
      | None -> reject "task_local certificate without a task tier"
      | Some d -> if not (Dpst.is_task d t) then reject "thread %d is not an async-spawned task" t);
      Ok ()
    | Some Cert_read_only, Read_only ->
      all_sites "writes under a read_only certificate" (fun k -> not (key_write l k));
      Ok ()
    | Some (Cert_lock_protected m), Lock_protected m' ->
      if not (Lockid.equal m m') then reject "lock mismatch (%d vs %d)" m m';
      all_sites (Printf.sprintf "does not hold lock %d" m) (fun k ->
          List.mem m l.l_locks.(key_rank l k));
      Ok ()
    | Some (Cert_sp_ordered o), Sp_ordered -> (
      match summary.sp with
      | None -> reject "sp_ordered certificate without a task tier"
      | Some d ->
        check_order ~adjacent:(series d) o;
        Ok ())
    | Some (Cert_ordered { c_barrier; c_order }), (Fork_join_ordered | Barrier_phased) ->
      if verdict = Fork_join_ordered && c_barrier then
        reject "fork_join_ordered certificate claims barrier edges";
      check_order ~adjacent:(path ~barrier:c_barrier) c_order;
      Ok ()
    | Some _, v -> reject "certificate kind does not match verdict %s" (verdict_name v)
  with Reject msg -> Error msg

let check_certificate summary e = replay summary e.e_verdict e.e_cert e.e_keys

(* Replays, memoized on the physical identity of the keys and the
   certificate: entries of one site signature share both, so each
   distinct certificate is replayed once.  Physically equal arrays have
   equal contents, so hashing the contents is consistent. *)
module Replayed = Hashtbl.Make (struct
  type t = int array * certificate * verdict

  let equal (k1, c1, v1) (k2, c2, v2) = k1 == k2 && c1 == c2 && v1 = v2
  let hash (k, _, _) = Hashtbl.hash k
end)

let eliminator ~granularity summary =
  let memo = Replayed.create 64 in
  let replayed verdict cert keys =
    match cert with
    | None -> false
    | Some c -> (
      match Replayed.find_opt memo (keys, c, verdict) with
      | Some ok -> ok
      | None ->
        let ok = Result.is_ok (replay summary verdict cert keys) in
        Replayed.add memo (keys, c, verdict) ok;
        ok)
  in
  match granularity with
  | Var.Fine ->
    (* a two-level obj -> field byte table, shaped like Shadow's *)
    let pass =
      List.filter_map
        (fun e -> if replayed e.e_verdict e.e_cert e.e_keys then Some e.e_var else None)
        summary.entries
    in
    let objs = List.fold_left (fun n (x : Var.t) -> max n (x.obj + 1)) 0 pass in
    let width = Array.make objs 0 in
    List.iter (fun (x : Var.t) -> width.(x.obj) <- max width.(x.obj) (x.field + 1)) pass;
    let bits = Array.map (fun w -> Bytes.make w '\000') width in
    List.iter (fun (x : Var.t) -> Bytes.set bits.(x.obj) x.field '\001') pass;
    fun (x : Var.t) ->
      x.obj >= 0 && x.obj < objs
      && x.field >= 0
      && x.field < Bytes.length bits.(x.obj)
      && Bytes.get bits.(x.obj) x.field <> '\000'
  | Var.Coarse ->
    (* A coarse detector runs one shadow location per object over the
       union of all its fields' accesses, so per-field certificates do
       not compose: re-classify the merged site set, and certify the
       object only if the union's own certificate replays. *)
    let by_obj = Hashtbl.create 32 in
    List.iter
      (fun e ->
        let o = e.e_var.Var.obj in
        Hashtbl.replace by_obj o
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_obj o)))
      summary.entries;
    let pass = ref [] in
    Hashtbl.iter
      (fun o es ->
        let ok =
          match es with
          | [ e ] -> replayed e.e_verdict e.e_cert e.e_keys
          | _ ->
            let merged =
              Array.of_list
                (List.sort_uniq Int.compare
                   (List.concat_map (fun e -> Array.to_list e.e_keys) es))
            in
            let verdict, cert = classify summary.labels summary.sp merged in
            replayed verdict (cert ()) merged
        in
        if ok then pass := o :: !pass)
      by_obj;
    let objs = List.fold_left (fun n o -> max n (o + 1)) 0 !pass in
    let bits = Bytes.make objs '\000' in
    List.iter (fun o -> Bytes.set bits o '\001') !pass;
    fun (x : Var.t) -> x.obj >= 0 && x.obj < objs && Bytes.get bits x.obj <> '\000'

(* ------------------------------------------------------------------ *)
(* Rendering.                                                         *)

let pp_verdict ppf = function
  | Thread_local t -> Format.fprintf ppf "thread-local(t%d)" t
  | Task_local t -> Format.fprintf ppf "task-local(t%d)" t
  | Read_only -> Format.pp_print_string ppf "read-only"
  | Lock_protected m -> Format.fprintf ppf "lock-protected(m%d)" m
  | Sp_ordered -> Format.pp_print_string ppf "sp-ordered"
  | Fork_join_ordered -> Format.pp_print_string ppf "fork-join-ordered"
  | Barrier_phased -> Format.pp_print_string ppf "barrier-phased"
  | May_race -> Format.pp_print_string ppf "may-race"

let pp_finding ppf f =
  (match f.f_tid with
  | Some t -> Format.fprintf ppf "[t%d] " t
  | None -> Format.pp_print_string ppf "[program] ");
  match f.f_kind with
  | Release_without_hold m -> Format.fprintf ppf "release of lock %d without holding it" m
  | Wait_without_monitor m -> Format.fprintf ppf "wait on monitor %d without holding it" m
  | Lock_never_released m -> Format.fprintf ppf "lock %d acquired but never released" m
  | Unknown_barrier b -> Format.fprintf ppf "wait on undeclared barrier %d" b
  | Barrier_party_mismatch { barrier; parties; participants } ->
    Format.fprintf ppf
      "barrier %d declares %d parties but %d thread(s) wait on it" barrier
      parties participants
  | Barrier_round_mismatch { barrier } ->
    Format.fprintf ppf "threads wait on barrier %d unequal numbers of times"
      barrier
  | Join_of_unknown u -> Format.fprintf ppf "join of unknown thread %d" u
  | Join_before_fork u -> Format.fprintf ppf "join of thread %d before forking it" u
  | Duplicate_fork u -> Format.fprintf ppf "thread %d forked more than once" u
  | Lock_order_cycle { locks } ->
    Format.fprintf ppf
      "locks {%s} acquired in conflicting orders by multiple threads \
       (potential deadlock cycle)"
      (String.concat "," (List.map string_of_int locks))
  | Async_escapes_finish u ->
    Format.fprintf ppf
      "task %d is spawned outside any finish scope and is never joined" u
  | Finish_never_closed { owner; task } ->
    Format.fprintf ppf
      "finish scope of thread %d can never close: registered task %d \
       joins its owner (guaranteed deadlock)"
      owner task
  | Join_of_task u ->
    Format.fprintf ppf
      "explicit join of task %d (finish scopes own task joins)" u
  | Unbounded_task_fanout { tid; count; limit } ->
    Format.fprintf ppf
      "thread %d spawns %d sibling tasks (fanout limit %d)" tid count limit

let pp_site ppf s =
  Format.fprintf ppf "t%d/s%d %s{%s}x%d" s.s_tid s.s_seg
    (if s.s_write then "W" else "R")
    (String.concat "," (List.map string_of_int s.s_locks))
    s.s_count

let verdict_order = function
  | Thread_local _ -> 0
  | Task_local _ -> 1
  | Read_only -> 2
  | Lock_protected _ -> 3
  | Sp_ordered -> 4
  | Fork_join_ordered -> 5
  | Barrier_phased -> 6
  | May_race -> 7

let pp_report ppf s =
  let segments =
    List.fold_left (fun acc (_, ns) -> acc + ns) 0 s.skeleton.sk_segs
  in
  Format.fprintf ppf "@[<v>static analysis: %d thread(s), %d segment(s), %d skeleton edge(s)@,"
    s.threads segments (List.length s.skeleton.sk_edges);
  (match s.sp with
  | Some d ->
    Format.fprintf ppf
      "task tier: DPST with %d node(s), depth %d, %d task(s) — O(1) MHP@,"
      (Dpst.node_count d) (Dpst.tree_depth d) (Dpst.task_count d)
  | None -> ());
  let counts = Array.make 8 0 and accs = Array.make 8 0 in
  List.iter
    (fun e ->
      let o = verdict_order e.e_verdict in
      counts.(o) <- counts.(o) + 1;
      accs.(o) <- accs.(o) + e.e_accesses)
    s.entries;
  Format.fprintf ppf "verdicts over %d variable(s), %d access(es):@,"
    (List.length s.entries) s.total_accesses;
  List.iteri
    (fun o name ->
      if counts.(o) > 0 then
        Format.fprintf ppf "  %-18s %6d var(s) %10d access(es)@," name
          counts.(o) accs.(o))
    [ "thread-local"; "task-local"; "read-only"; "lock-protected";
      "sp-ordered"; "fork-join-ordered"; "barrier-phased"; "may-race" ];
  Format.fprintf ppf "certified: %d / %d accesses eliminable (%.1f%%)@,"
    s.certified_accesses s.total_accesses (100. *. elimination_ratio s);
  (match s.findings with
  | [] -> Format.fprintf ppf "lint: clean@,"
  | fs ->
    Format.fprintf ppf "lint findings (%d):@," (List.length fs);
    List.iter (fun f -> Format.fprintf ppf "  %a@," pp_finding f) fs);
  let racy = List.filter (fun e -> e.e_verdict = May_race) s.entries in
  (match racy with
  | [] -> Format.fprintf ppf "no may-race variables@]"
  | _ ->
    Format.fprintf ppf "may-race variables (%d):@," (List.length racy);
    let shown = ref 0 in
    List.iter
      (fun e ->
        if !shown < 20 then begin
          incr shown;
          Format.fprintf ppf "  %a  sites: %a@," Var.pp e.e_var
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
               pp_site)
            (sites s e)
        end)
      racy;
    if List.length racy > 20 then
      Format.fprintf ppf "  ... and %d more@," (List.length racy - 20);
    Format.fprintf ppf "@]")
