type enriched = {
  warning : Warning.t;
  witness : Witness.t option;
  key : int option;
  sync_path : (int * Event.t) list;
  sync_scope : [ `Between | `Prefix ];
  slice : (int * Event.t) list;
  history : Obs_recorder.entry list;
}

type t = {
  source : string;
  tool : string;
  jobs : int;
  events : int;
  recorder : (string * int) list;
  races : enriched list;
}

let schema_version = "ftrace.report/1"

(* Does a sync event involve thread [tid]?  Barriers involve the whole
   released set. *)
let involves tid e =
  match e with
  | Event.Barrier_release { threads } -> List.exists (Tid.equal tid) threads
  | Event.Fork { t; u } | Event.Join { t; u } ->
    (* forks and joins are part of both threads' happens-before
       history, not just the acting thread's *)
    Tid.equal t tid || Tid.equal u tid
  | _ -> ( match Event.tid e with Some u -> Tid.equal u tid | None -> false)

(* The first access of a racing pair is a write for write-write and
   write-read races, a read for read-write races. *)
let first_is_write = function
  | Warning.Write_write | Warning.Write_read -> true
  | Warning.Read_write -> false
  | Warning.Lock_discipline -> false

(* Pass 1: recover each witness's first-access trace index.

   FastTrack's shadow word stores only the epoch [c@u] of the earlier
   access, so we replay the trace through a fresh Vc_state — epochs
   only advance on synchronization, which Vc_state.handle_sync applies
   with the exact Figure 3 rules the detector used — and remember the
   last access by [u] to the witness's shadow key made while [u]'s
   epoch equalled [c@u].  That is precisely the access whose epoch the
   failing ⪯-check read. *)
let reconstruct_first_indices ~mode trace witnesses =
  match witnesses with
  | [] -> []
  | _ ->
    let stats = Stats.create () in
    let sync = Vc_state.create stats in
    let shadow : unit Shadow.t = Shadow.create mode in
    let slots = Array.of_list witnesses in
    let found = Array.make (Array.length slots) None in
    Trace.iteri
      (fun index e ->
        if not (Vc_state.handle_sync sync e) then
          match e with
          | Event.Read { t; x } | Event.Write { t; x } ->
            let is_write =
              match e with Event.Write _ -> true | _ -> false
            in
            let key = Shadow.key shadow x in
            Array.iteri
              (fun i (w : Witness.t) ->
                if
                  index < w.Witness.index && key = w.Witness.key
                  && Tid.equal t w.Witness.first.Witness.s_tid
                  && is_write = first_is_write w.Witness.kind
                  && Epoch.equal
                       (Vc_state.epoch sync t)
                       w.Witness.first.Witness.s_epoch
                then found.(i) <- Some index)
              slots
          | _ -> ())
      trace;
    List.mapi
      (fun i w ->
        match found.(i) with
        | Some idx -> Witness.with_first_index w idx
        | None -> w)
      witnesses

(* Pass 2, per witness: the sync events between the two accesses that
   involve either thread, and the replayable slice — every
   synchronization / transaction event up to the second access plus
   every access to the racy key.  The slice preserves the full
   happens-before structure and the location's access history, so
   replaying it reproduces the warning. *)
let sync_path_of ~first_index trace (w : Witness.t) =
  let lo = match first_index with Some i -> i | None -> -1 in
  let hi = w.Witness.index in
  let acc = ref [] in
  Trace.iteri
    (fun index e ->
      if
        index > lo && index < hi && Event.is_sync e
        && (involves w.Witness.first.Witness.s_tid e
           || involves w.Witness.second.Witness.s_tid e)
      then acc := (index, e) :: !acc)
    trace;
  List.rev !acc

let slice_of ~mode trace (w : Witness.t) =
  let shadow : unit Shadow.t = Shadow.create mode in
  let acc = ref [] in
  Trace.iteri
    (fun index e ->
      if index <= w.Witness.index then
        match e with
        | Event.Read { x; _ } | Event.Write { x; _ } ->
          if Shadow.key shadow x = w.Witness.key then
            acc := (index, e) :: !acc
        | _ -> acc := (index, e) :: !acc)
    trace;
  List.rev !acc

let build ?(config = Config.default) ?(source = "") ~trace
    (r : Driver.result) =
  let mode = config.Config.granularity in
  let recorder = config.Config.recorder in
  let witnesses =
    reconstruct_first_indices ~mode trace r.Driver.witnesses
  in
  let witness_at index =
    List.find_opt (fun (w : Witness.t) -> w.Witness.index = index) witnesses
  in
  let races =
    List.map
      (fun (warning : Warning.t) ->
        match witness_at warning.Warning.index with
        | Some w ->
          (* Sync events strictly between the accesses involving either
             thread; when there are none (the accesses can be adjacent
             in sync terms), fall back to both threads' sync history
             before the race — the forks/acquires that built the very
             clocks the witness shows, none of which ordered the
             pair. *)
          let between =
            sync_path_of ~first_index:w.Witness.first.Witness.s_index
              trace w
          in
          let sync_path, sync_scope =
            match between with
            | _ :: _ -> (between, `Between)
            | [] -> (sync_path_of ~first_index:None trace w, `Prefix)
          in
          { warning;
            witness = Some w;
            key = Some w.Witness.key;
            sync_path;
            sync_scope;
            slice = slice_of ~mode trace w;
            history = Obs_recorder.entries recorder ~key:w.Witness.key }
        | None ->
          (* Clock-less tools (Eraser) warn without witnesses; the
             flight recorder can still testify if it was on. *)
          let shadow : unit Shadow.t = Shadow.create mode in
          let key = Shadow.key shadow warning.Warning.x in
          { warning;
            witness = None;
            key = Some key;
            sync_path = [];
            sync_scope = `Between;
            slice = [];
            history = Obs_recorder.entries recorder ~key })
      r.Driver.warnings
  in
  { source;
    tool = r.Driver.tool;
    jobs = max 1 (Array.length r.Driver.shards);
    events = Trace.length trace;
    recorder =
      [ ("vars_tracked", Obs_recorder.vars_tracked recorder);
        ("recorded", Obs_recorder.recorded recorder);
        ("dropped", Obs_recorder.dropped recorder);
        ("approx_words", Obs_recorder.approx_words recorder) ];
    races }

let slice_trace e = Trace.of_list (List.map snd e.slice)

(* ------------------------------------------------------------------ *)
(* --explain text                                                     *)

let pp_locks ppf locks =
  if Array.length locks = 0 then Format.fprintf ppf "no locks"
  else
    Format.fprintf ppf "holding {%s}"
      (String.concat ", "
         (Array.to_list
            (Array.map (fun l -> Printf.sprintf "m%d" l) locks)))

let pp_history_entry ppf (en : Obs_recorder.entry) =
  Format.fprintf ppf "[%4d] %s by T%d, clock %d, %a" en.Obs_recorder.e_index
    (match en.Obs_recorder.e_op with
    | Obs_recorder.Read -> "rd"
    | Obs_recorder.Write -> "wr")
    en.Obs_recorder.e_tid en.Obs_recorder.e_clock pp_locks
    en.Obs_recorder.e_locks

let pp_enriched ~events ppf i e =
  let w = e.warning in
  Format.fprintf ppf "@[<v>race #%d: %s@," (i + 1) (Warning.to_string w);
  (match e.witness with
  | Some wit ->
    Format.fprintf ppf "%a@," Witness.pp wit;
    (match (e.sync_path, e.sync_scope) with
    | [], _ ->
      Format.fprintf ppf
        "  no sync event between the accesses touches either thread@,"
    | path, `Between ->
      Format.fprintf ppf
        "  sync events between the accesses (involving either thread):@,";
      List.iter
        (fun (index, ev) ->
          Format.fprintf ppf "    [%4d] %s@," index (Event.to_string ev))
        path
    | path, `Prefix ->
      Format.fprintf ppf
        "  no sync event lies between the accesses; the threads' sync \
         history before the race (none of it orders the pair):@,";
      List.iter
        (fun (index, ev) ->
          Format.fprintf ppf "    [%4d] %s@," index (Event.to_string ev))
        path);
    Format.fprintf ppf
      "  replayable slice: %d of %d events (sync prefix + accesses to %s; \
       see --report)@,"
      (List.length e.slice) events (Var.to_string w.Warning.x)
  | None ->
    Format.fprintf ppf "  (no happens-before witness: %s keeps no clocks)@,"
      "this tool");
  (match e.history with
  | [] -> ()
  | hist ->
    Format.fprintf ppf "  flight recorder (last %d accesses to %s):@,"
      (List.length hist)
      (Var.to_string w.Warning.x);
    List.iter
      (fun en -> Format.fprintf ppf "    %a@," pp_history_entry en)
      hist);
  Format.fprintf ppf "@]"

let pp_explain ppf t =
  Format.fprintf ppf "@[<v>%s: %d warning(s) on %d events (%s)@,@," t.tool
    (List.length t.races) t.events
    (if t.source = "" then "trace" else t.source);
  List.iteri
    (fun i e ->
      pp_enriched ~events:t.events ppf i e;
      if i < List.length t.races - 1 then Format.fprintf ppf "@,")
    t.races;
  Format.fprintf ppf "@]"

let explain t = Format.asprintf "%a" pp_explain t

(* ------------------------------------------------------------------ *)
(* ftrace.report/1 JSON                                               *)

let json_of_side (s : Witness.side) =
  Obs_json.obj
    [ ("tid", Obs_json.int s.Witness.s_tid);
      ("epoch", Obs_json.str (Epoch.to_string s.Witness.s_epoch));
      ("clock", Obs_json.int s.Witness.s_clock);
      ( "index",
        match s.Witness.s_index with
        | Some i -> Obs_json.int i
        | None -> Obs_json.null );
      ("vc", Obs_json.arr (List.map Obs_json.int s.Witness.s_vc)) ]

let json_of_witness (w : Witness.t) =
  Obs_json.obj
    [ ("key", Obs_json.int w.Witness.key);
      ("first", json_of_side w.Witness.first);
      ("second", json_of_side w.Witness.second);
      ( "unordered",
        match Witness.unordered w with
        | Some (u, c, c') ->
          Obs_json.obj
            [ ("tid", Obs_json.int u);
              ("first_clock", Obs_json.int c);
              ("second_saw", Obs_json.int c') ]
        | None -> Obs_json.null ) ]

let json_of_indexed (index, e) =
  Obs_json.obj
    [ ("index", Obs_json.int index);
      ("event", Obs_json.str (Event.to_string e)) ]

let json_of_history (en : Obs_recorder.entry) =
  Obs_json.obj
    [ ("index", Obs_json.int en.Obs_recorder.e_index);
      ("tid", Obs_json.int en.Obs_recorder.e_tid);
      ( "op",
        Obs_json.str
          (match en.Obs_recorder.e_op with
          | Obs_recorder.Read -> "read"
          | Obs_recorder.Write -> "write") );
      ("clock", Obs_json.int en.Obs_recorder.e_clock);
      ( "locks",
        Obs_json.arr
          (List.map Obs_json.int (Array.to_list en.Obs_recorder.e_locks)) )
    ]

let json_of_enriched e =
  let w = e.warning in
  Obs_json.obj
    [ ("var", Obs_json.str (Var.to_string w.Warning.x));
      ( "key",
        match e.key with Some k -> Obs_json.int k | None -> Obs_json.null );
      ("kind", Obs_json.str (Warning.kind_tag w.Warning.kind));
      ("tid", Obs_json.int w.Warning.tid);
      ("index", Obs_json.int w.Warning.index);
      ( "prior",
        match w.Warning.prior with
        | Some p ->
          Obs_json.obj
            [ ("tid", Obs_json.int p.Warning.prior_tid);
              ("clock", Obs_json.int p.Warning.prior_clock) ]
        | None -> Obs_json.null );
      ( "witness",
        match e.witness with
        | Some wit -> json_of_witness wit
        | None -> Obs_json.null );
      ("sync_path", Obs_json.arr (List.map json_of_indexed e.sync_path));
      ( "sync_scope",
        Obs_json.str
          (match e.sync_scope with
          | `Between -> "between"
          | `Prefix -> "prefix") );
      ("slice", Obs_json.arr (List.map json_of_indexed e.slice));
      ("history", Obs_json.arr (List.map json_of_history e.history)) ]

let to_json t =
  Obs_json.obj
    [ ("schema", Obs_json.str schema_version);
      ("source", Obs_json.str t.source);
      ("tool", Obs_json.str t.tool);
      ("jobs", Obs_json.int t.jobs);
      ("events", Obs_json.int t.events);
      ("warnings", Obs_json.int (List.length t.races));
      ("recorder",
       Obs_json.obj
         (List.map (fun (k, v) -> (k, Obs_json.int v)) t.recorder));
      ("races", Obs_json.arr (List.map json_of_enriched t.races)) ]

let to_string t = Obs_json.to_string (to_json t)

let write_file ~path t =
  let write oc =
    Obs_json.to_channel oc (to_json t);
    output_char oc '\n'
  in
  if path = "-" then (
    write stdout;
    flush stdout)
  else (
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc))
