open Static

let max_sites = 16

let node n =
  Obs_json.obj [ ("tid", Obs_json.int n.n_tid); ("seg", Obs_json.int n.n_seg) ]

let edge_kind_fields = function
  | Po -> [ ("kind", Obs_json.str "po") ]
  | Fork_edge -> [ ("kind", Obs_json.str "fork") ]
  | Join_edge -> [ ("kind", Obs_json.str "join") ]
  | Barrier_edge { barrier; round } ->
    [ ("kind", Obs_json.str "barrier");
      ("barrier", Obs_json.int barrier);
      ("round", Obs_json.int round) ]

let edge e =
  Obs_json.obj
    ([ ("from", node e.e_from); ("to", node e.e_to) ] @ edge_kind_fields e.e_kind)

let take n l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n l

(* The epoch shape in full: the write sequence, the chain between each
   consecutive pair, and each read's place in the sequence with its two
   chains (none under the DPST, which replays series order itself).  A
   chain is a list of indices into the document's [program.edges].
   O(nodes) per variable. *)
let order ~chains o =
  let chain ch = Obs_json.arr (Array.to_list (Array.map Obs_json.int ch)) in
  [ ("writes", Obs_json.arr (Array.to_list (Array.map node o.o_writes))) ]
  @ (if chains then [ ("steps", Obs_json.arr (Array.to_list (Array.map chain o.o_steps))) ]
     else [])
  @ [ ( "reads",
        Obs_json.arr
          (Array.to_list
             (Array.map
                (fun k ->
                  Obs_json.obj
                    ([ ("node", node k.k_read); ("after", Obs_json.int k.k_after) ]
                    @
                    if chains then [ ("in", chain k.k_in); ("out", chain k.k_out) ]
                    else []))
                o.o_reads)) ) ]

let certificate = function
  | Cert_thread_local t ->
    Obs_json.obj
      [ ("kind", Obs_json.str "thread_local"); ("tid", Obs_json.int t) ]
  | Cert_task_local t ->
    Obs_json.obj
      [ ("kind", Obs_json.str "task_local"); ("tid", Obs_json.int t) ]
  | Cert_sp_ordered o ->
    Obs_json.obj (("kind", Obs_json.str "sp_ordered") :: order ~chains:false o)
  | Cert_read_only -> Obs_json.obj [ ("kind", Obs_json.str "read_only") ]
  | Cert_lock_protected m ->
    Obs_json.obj
      [ ("kind", Obs_json.str "lock_protected"); ("lock", Obs_json.int m) ]
  | Cert_ordered { c_barrier; c_order } ->
    Obs_json.obj
      ([ ("kind", Obs_json.str "ordered"); ("barrier", Obs_json.bool c_barrier) ]
      @ order ~chains:true c_order)

let site s =
  Obs_json.obj
    [ ("tid", Obs_json.int s.s_tid);
      ("seg", Obs_json.int s.s_seg);
      ("write", Obs_json.bool s.s_write);
      ("locks", Obs_json.arr (List.map Obs_json.int s.s_locks));
      ("count", Obs_json.int s.s_count) ]

let entry s e =
  Obs_json.obj
    [ ("var", Obs_json.str (Var.to_string e.e_var));
      ("obj", Obs_json.int e.e_var.Var.obj);
      ("field", Obs_json.int e.e_var.Var.field);
      ("verdict", Obs_json.str (verdict_name e.e_verdict));
      ("accesses", Obs_json.int e.e_accesses);
      ("site_count", Obs_json.int (Array.length e.e_keys));
      ("sites", Obs_json.arr (List.map site (take max_sites (sites s e))));
      ( "certificate",
        match e.e_cert with None -> Obs_json.null | Some c -> certificate c )
    ]

let finding_kind_fields = function
  | Release_without_hold m ->
    [ ("kind", Obs_json.str "release_without_hold"); ("lock", Obs_json.int m) ]
  | Wait_without_monitor m ->
    [ ("kind", Obs_json.str "wait_without_monitor"); ("lock", Obs_json.int m) ]
  | Lock_never_released m ->
    [ ("kind", Obs_json.str "lock_never_released"); ("lock", Obs_json.int m) ]
  | Unknown_barrier b ->
    [ ("kind", Obs_json.str "unknown_barrier"); ("barrier", Obs_json.int b) ]
  | Barrier_party_mismatch { barrier; parties; participants } ->
    [ ("kind", Obs_json.str "barrier_party_mismatch");
      ("barrier", Obs_json.int barrier);
      ("parties", Obs_json.int parties);
      ("participants", Obs_json.int participants) ]
  | Barrier_round_mismatch { barrier } ->
    [ ("kind", Obs_json.str "barrier_round_mismatch");
      ("barrier", Obs_json.int barrier) ]
  | Join_of_unknown u ->
    [ ("kind", Obs_json.str "join_of_unknown"); ("tid", Obs_json.int u) ]
  | Join_before_fork u ->
    [ ("kind", Obs_json.str "join_before_fork"); ("tid", Obs_json.int u) ]
  | Duplicate_fork u ->
    [ ("kind", Obs_json.str "duplicate_fork"); ("tid", Obs_json.int u) ]
  | Lock_order_cycle { locks } ->
    [ ("kind", Obs_json.str "lock_order_cycle");
      ("locks", Obs_json.arr (List.map Obs_json.int locks)) ]
  | Async_escapes_finish u ->
    [ ("kind", Obs_json.str "async_escapes_finish"); ("tid", Obs_json.int u) ]
  | Finish_never_closed { owner; task } ->
    [ ("kind", Obs_json.str "finish_never_closed");
      ("owner", Obs_json.int owner);
      ("task", Obs_json.int task) ]
  | Join_of_task u ->
    [ ("kind", Obs_json.str "join_of_task"); ("tid", Obs_json.int u) ]
  | Unbounded_task_fanout { tid; count; limit } ->
    [ ("kind", Obs_json.str "unbounded_task_fanout");
      ("tid", Obs_json.int tid);
      ("count", Obs_json.int count);
      ("limit", Obs_json.int limit) ]

let finding f =
  Obs_json.obj
    (( "tid",
       match f.f_tid with None -> Obs_json.null | Some t -> Obs_json.int t )
    :: finding_kind_fields f.f_kind)

let verdict_counts entries =
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let tbl = Hashtbl.create 8 in
  List.iter (fun e -> bump tbl (verdict_name e.e_verdict)) entries;
  Obs_json.obj
    (List.map
       (fun k ->
         (k, Obs_json.int (Option.value ~default:0 (Hashtbl.find_opt tbl k))))
       [ "thread_local"; "task_local"; "read_only"; "lock_protected";
         "sp_ordered"; "fork_join_ordered"; "barrier_phased"; "may_race" ])

let document ?(source = "") s =
  let segments =
    List.fold_left (fun acc (_, ns) -> acc + ns) 0 s.skeleton.sk_segs
  in
  Obs_json.obj
    [ ("schema", Obs_json.str "ftrace.static/2");
      ("source", Obs_json.str source);
      ( "program",
        Obs_json.obj
          ([ ("threads", Obs_json.int s.threads);
             ("segments", Obs_json.int segments);
             ("skeleton_edges", Obs_json.int (List.length s.skeleton.sk_edges));
             ("edges", Obs_json.arr (List.map edge s.skeleton.sk_edges)) ]
          @
          match s.sp with
          | None -> []
          | Some d ->
            [ ( "task_tier",
                Obs_json.obj
                  [ ("dpst_nodes", Obs_json.int (Dpst.node_count d));
                    ("dpst_depth", Obs_json.int (Dpst.tree_depth d));
                    ("tasks", Obs_json.int (Dpst.task_count d)) ] ) ]) );
      ( "totals",
        Obs_json.obj
          [ ("variables", Obs_json.int (List.length s.entries));
            ("accesses", Obs_json.int s.total_accesses);
            ("certified_accesses", Obs_json.int s.certified_accesses);
            ("elimination_ratio", Obs_json.float (elimination_ratio s));
            ("verdicts", verdict_counts s.entries) ] );
      ("findings", Obs_json.arr (List.map finding s.findings));
      ("variables", Obs_json.arr (List.map (entry s) s.entries)) ]

let to_string ?source s = Obs_json.to_string (document ?source s)

let write ?source ~path s =
  let doc = document ?source s in
  if path = "-" then begin
    Obs_json.to_channel stdout doc;
    print_newline ()
  end
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Obs_json.to_channel oc doc;
        output_char oc '\n')
  end
