type stmt =
  | Read of Var.t
  | Write of Var.t
  | Acquire of Lockid.t
  | Release of Lockid.t
  | Fork of Tid.t
  | Join of Tid.t
  | Volatile_read of Volatile.t
  | Volatile_write of Volatile.t
  | Barrier_wait of int
  | Wait of Lockid.t
  | Txn_begin
  | Txn_end
  | Async of Tid.t
  | Finish of stmt list

type thread = { tid : Tid.t; body : stmt list }
type barrier = { id : int; parties : int }

type t = {
  threads : thread list;
  barriers : barrier list;
  roots : Tid.t list;
}

let rec iter_stmts f stmts =
  List.iter
    (fun st ->
      f st;
      match st with Finish body -> iter_stmts f body | _ -> ())
    stmts

(* Spawn sites of either tier, in syntactic order:
   (spawner, target, is_async). *)
let spawn_sites threads =
  let sites = ref [] in
  List.iter
    (fun th ->
      iter_stmts
        (function
          | Fork u -> sites := (th.tid, u, false) :: !sites
          | Async u -> sites := (th.tid, u, true) :: !sites
          | _ -> ())
        th.body)
    threads;
  List.rev !sites

let make ?(barriers = []) ?roots threads =
  let tids = List.map (fun th -> th.tid) threads in
  (let seen = Hashtbl.create 16 in
   List.iter
     (fun t ->
       if Hashtbl.mem seen t then
         invalid_arg
           (Printf.sprintf "Program.make: duplicate thread id %d" t);
       Hashtbl.replace seen t ())
     tids);
  let sites = spawn_sites threads in
  let verb is_async = if is_async then "async" else "fork" in
  List.iter
    (fun (t, u, a) ->
      if not (List.mem u tids) then
        invalid_arg
          (Printf.sprintf "Program.make: %s of unknown thread %d" (verb a) u);
      if Tid.equal t u then
        invalid_arg
          (Printf.sprintf "Program.make: thread %d %ss itself" t
             (if a then "async" else "fork")))
    sites;
  let forked = List.filter_map (fun (_, u, a) -> if a then None else Some u) sites in
  let asynced = List.filter_map (fun (_, u, a) -> if a then Some u else None) sites in
  List.iter
    (fun u ->
      if List.mem u forked then
        invalid_arg
          (Printf.sprintf
             "Program.make: thread %d is both forked and asynced (a thread \
              belongs to exactly one spawn tier)"
             u))
    asynced;
  let spawned = forked @ asynced in
  let roots =
    match roots with
    | Some roots -> roots
    | None -> List.filter (fun t -> not (List.mem t spawned)) tids
  in
  List.iter
    (fun (_, u, a) ->
      if List.mem u roots then
        invalid_arg
          (Printf.sprintf "Program.make: %s of root thread %d" (verb a) u))
    sites;
  if roots = [] && threads <> [] then
    invalid_arg
      "Program.make: no root thread (every thread is a spawn target)";
  (* Every async target must be reachable from a root through the spawn
     graph; an unreachable task means its Async sites sit in a spawn
     cycle (or under one) and the scheduler could never start it. *)
  (let reachable = Hashtbl.create 16 in
   let rec visit t =
     if not (Hashtbl.mem reachable t) then begin
       Hashtbl.replace reachable t ();
       List.iter (fun (s, u, _) -> if Tid.equal s t then visit u) sites
     end
   in
   List.iter visit roots;
   List.iter
     (fun u ->
       if not (Hashtbl.mem reachable u) then
         invalid_arg
           (Printf.sprintf
              "Program.make: task %d is unreachable from any root (async \
               spawn cycle)"
              u))
     asynced);
  (let seen = Hashtbl.create 4 in
   List.iter
     (fun (b : barrier) ->
       if Hashtbl.mem seen b.id then
         invalid_arg
           (Printf.sprintf "Program.make: duplicate barrier id %d" b.id);
       Hashtbl.replace seen b.id ();
       if b.parties < 2 then
         invalid_arg
           (Printf.sprintf
              "Program.make: barrier %d needs at least 2 parties (has %d)"
              b.id b.parties))
     barriers);
  { threads; barriers; roots }

let thread_count p = List.length p.threads

(* Structural fingerprint of the whole program shape.  Explicit
   recursion through a strong mixer — [Hashtbl.hash] truncates its
   traversal and would collide distinct bodies — so the certificate
   cache can tell any two differently-shaped programs apart. *)
let structural_hash p =
  let h = ref 0x5deece66d in
  let add tag v = h := Prng.mix3 !h tag v in
  let rec stmt = function
    | Read x -> add 1 (Var.key Var.Fine x)
    | Write x -> add 2 (Var.key Var.Fine x)
    | Acquire m -> add 3 m
    | Release m -> add 4 m
    | Fork u -> add 5 u
    | Join u -> add 6 u
    | Volatile_read v -> add 7 v
    | Volatile_write v -> add 8 v
    | Barrier_wait b -> add 9 b
    | Wait m -> add 10 m
    | Txn_begin -> add 11 0
    | Txn_end -> add 12 0
    | Async u -> add 13 u
    | Finish body ->
      add 14 (List.length body);
      List.iter stmt body;
      add 15 0
  in
  List.iter
    (fun th ->
      add 16 th.tid;
      add 17 (List.length th.body);
      List.iter stmt th.body)
    p.threads;
  List.iter (fun (b : barrier) -> add 18 b.id; add 19 b.parties) p.barriers;
  List.iter (fun t -> add 20 t) p.roots;
  !h

let locked m body =
  (* a synchronized block is also an atomic region for the Section 5.2
     checkers, hence the transaction markers *)
  (Txn_begin :: Acquire m :: body) @ [ Release m; Txn_end ]
let txn body = (Txn_begin :: body) @ [ Txn_end ]
let reads x n = List.init n (fun _ -> Read x)
let writes x n = List.init n (fun _ -> Write x)

let repeat n body =
  List.concat (List.init n (fun _ -> body))
