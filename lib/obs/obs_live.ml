(* Live telemetry bus: in-flight snapshot streaming (ftrace.live/1).

   Shape of the thing:

   - each analysis worker holds a [pub] (one per worker id); every
     [tick_events] events it flattens its *own* counters into an
     immutable Obs_snapshot partial and publishes it with one atomic
     store.  There is one publish shape: the driver walks each event
     source in tick-sized windows and publishes between windows
     ([pub_chunk]), so the per-event loop carries no ticker.  No
     locks, no cross-domain reads of mutable detector state —
     partials are built on the domain that owns the counters;
   - a collector — the calling thread itself for sequential runs
     (piggy-backed on the publish), a dedicated domain for parallel
     regions ([with_collector]) — merges the latest partials at the
     configured period and appends one delta-encoded NDJSON record to
     the sink;
   - [finish] emits a final record carrying the run's exact cumulative
     counters (the same [Stats.fields_alist] the --metrics exporter
     writes), so a consumer can cross-check the stream against the
     ftrace.obs/2 document to the last integer.

   The disabled handle follows the one-branch idiom of [Obs]: drivers
   select the instrumented closure once, outside the loop, so a run
   without --live pays nothing per event. *)

let schema_version = "ftrace.live/1"

type worker_pub = {
  wp_id : int;
  wp_slot : Obs_snapshot.t option Atomic.t;
  wp_tick_events : int;
  (* worker-local accumulation; only the owning domain touches it *)
  mutable wp_done : Obs_snapshot.counts;  (* completed detector instances *)
  mutable wp_rules : (string * int) list; (* merged rules of the same *)
  mutable wp_vars : (string * int) list;  (* merged hot-var standings *)
}

type enabled = {
  sink : out_channel;
  owns_sink : bool;
  period : float;
  tick_events : int;
  total : int;
  start : float;  (* monotonic epoch of the bus *)
  mu : Mutex.t;
  mutable seq : int;
  mutable last : Obs_snapshot.t;  (* last emitted merged snapshot *)
  mutable last_emit_at : float;
  mutable phase : string;
  mutable base : Obs_snapshot.counts;
      (* counters not owned by any worker: the stealing prefix's
         timeline replay and routed-out eliminated accesses *)
  mutable pubs : worker_pub list;
  mutable finished : bool;
}

type t = enabled option
type pub = (enabled * worker_pub) option

let disabled : t = None
let is_enabled = Option.is_some

(* ------------------------------------------------------------------ *)
(* Sink specs: FILE | - | fd:N                                        *)

let open_sink spec =
  if spec = "-" then Ok (stdout, false)
  else if String.length spec > 3 && String.sub spec 0 3 = "fd:" then
    match int_of_string_opt (String.sub spec 3 (String.length spec - 3)) with
    | Some fd when fd >= 0 ->
      Ok
        ( Unix.out_channel_of_descr
            (Obj.magic (fd : int) : Unix.file_descr),
          true )
    | _ -> Error (Printf.sprintf "%s: malformed fd spec" spec)
  else
    match open_out spec with
    | oc -> Ok (oc, true)
    | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)

let now_of e = Obs_clock.now () -. e.start

let write_line e json =
  Obs_json.to_channel e.sink json;
  output_char e.sink '\n';
  flush e.sink

let header ?(source = "") ?(tool = "") e =
  Obs_json.obj
    [ ("schema", Obs_json.str schema_version);
      ("source", Obs_json.str source);
      ("tool", Obs_json.str tool);
      ("total_events", Obs_json.int e.total);
      ("period_s", Obs_json.float e.period);
      ("tick_events", Obs_json.int e.tick_events);
      ("host",
       Obs_json.obj [ ("cores", Obs_json.int (Obs_cores.recommended ())) ])
    ]

let create ?(period = 0.05) ?(tick_events = 8192) ?(total = 0) ?source
    ?tool ~sink ~owns_sink () : t =
  let e =
    { sink;
      owns_sink;
      period = Float.max 0. period;
      tick_events = max 1 tick_events;
      total;
      start = Obs_clock.now ();
      mu = Mutex.create ();
      seq = 0;
      last = Obs_snapshot.empty;
      last_emit_at = neg_infinity;
      phase = "start";
      base = Obs_snapshot.zero;
      pubs = [];
      finished = false }
  in
  write_line e (header ?source ?tool e);
  Some e

(* ------------------------------------------------------------------ *)
(* Record encoding                                                    *)

let counts_json (c : Obs_snapshot.counts) =
  Obs_json.obj
    [ ("events", Obs_json.int c.Obs_snapshot.events);
      ("reads", Obs_json.int c.Obs_snapshot.reads);
      ("writes", Obs_json.int c.Obs_snapshot.writes);
      ("syncs", Obs_json.int c.Obs_snapshot.syncs);
      ("eliminated", Obs_json.int c.Obs_snapshot.eliminated);
      ("epoch_ops", Obs_json.int c.Obs_snapshot.epoch_ops);
      ("vc_ops", Obs_json.int c.Obs_snapshot.vc_ops);
      ("vc_ops_skipped", Obs_json.int c.Obs_snapshot.vc_ops_skipped);
      ("state_words", Obs_json.int c.Obs_snapshot.state_words);
      ("warnings", Obs_json.int c.Obs_snapshot.warnings) ]

let workers_json ws =
  Obs_json.arr
    (Array.to_list
       (Array.map
          (fun (w : Obs_snapshot.worker) ->
            Obs_json.obj
              [ ("id", Obs_json.int w.Obs_snapshot.w_id);
                ("events", Obs_json.int w.Obs_snapshot.w_events) ])
          ws))

let record_json e (snap : Obs_snapshot.t) =
  let delta = Obs_snapshot.sub snap.counts e.last.Obs_snapshot.counts in
  Obs_json.obj
    [ ("seq", Obs_json.int e.seq);
      ("at_s", Obs_json.float snap.at);
      ("phase", Obs_json.str snap.phase);
      ("cum_events", Obs_json.int (Obs_snapshot.events_seen snap));
      ("d", counts_json delta);
      ("evps", Obs_json.float (Obs_snapshot.rate ~prev:e.last snap));
      ("fast_frac", Obs_json.float (Obs_snapshot.fast_path_frac snap));
      ("imbalance", Obs_json.float (Obs_snapshot.imbalance snap));
      ("heap_words", Obs_json.int snap.heap_words);
      (* rules are cumulative, not delta-encoded: the alist is a
         handful of entries and consumers want the standings as-is *)
      ("rules",
       Obs_json.obj
         (List.map (fun (k, v) -> (k, Obs_json.int v)) snap.rules));
      (* hot-variable standings (profiling runs only), top 8 of the
         merged per-worker lists — same shape as rules *)
      ("top_vars",
       Obs_json.obj
         (List.filteri (fun i _ -> i < 8) snap.vars
         |> List.map (fun (k, v) -> (k, Obs_json.int v))));
      ("workers", workers_json snap.workers) ]

(* ------------------------------------------------------------------ *)
(* Collector: merge latest partials, emit if the period elapsed.      *)

let merged e =
  let partials =
    List.filter_map (fun p -> Atomic.get p.wp_slot) e.pubs
  in
  let base = { Obs_snapshot.empty with counts = e.base } in
  let snap =
    Obs_snapshot.merge ~at:(now_of e) ~phase:e.phase (base :: partials)
  in
  { snap with
    heap_words = (Gc.quick_stat ()).Gc.heap_words }

(* Caller holds e.mu. *)
let emit_locked ?(force = false) e =
  if not e.finished then begin
    let snap = merged e in
    let progressed =
      Obs_snapshot.events_seen snap
      > Obs_snapshot.events_seen e.last
      || snap.Obs_snapshot.phase <> e.last.Obs_snapshot.phase
    in
    if force || progressed then begin
      e.seq <- e.seq + 1;
      write_line e (record_json e snap);
      e.last <- snap;
      e.last_emit_at <- snap.Obs_snapshot.at
    end
  end

let step e =
  if now_of e -. e.last_emit_at >= e.period then begin
    Mutex.lock e.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock e.mu)
      (fun () ->
        if now_of e -. e.last_emit_at >= e.period then emit_locked e)
  end

(* ------------------------------------------------------------------ *)
(* Publishers (one per worker)                                        *)

let publisher (t : t) ~worker : pub =
  match t with
  | None -> None
  | Some e ->
    let p =
      { wp_id = worker;
        wp_slot = Atomic.make None;
        wp_tick_events = e.tick_events;
        wp_done = Obs_snapshot.zero;
        wp_rules = [];
        wp_vars = [] }
    in
    Mutex.lock e.mu;
    e.pubs <- p :: e.pubs;
    Mutex.unlock e.mu;
    Some (e, p)

let publish p =
  match p with
  | None -> ()
  | Some (_, wp) ->
    let c = wp.wp_done in
    Atomic.set wp.wp_slot
      (Some
         { Obs_snapshot.empty with
           counts = c;
           rules = wp.wp_rules;
           vars = wp.wp_vars;
           workers =
             [| { Obs_snapshot.w_id = wp.wp_id;
                  w_events = c.Obs_snapshot.events + c.Obs_snapshot.eliminated } |] })

(* The publish between chunks: merge the worker's folded-in counts
   with its in-flight instance, stamp the rule (and hot-variable)
   standings, swap the partial into the collector-visible slot. *)
let tick_publish e wp rules vars ~current ~standalone =
  let c = Obs_snapshot.add wp.wp_done (current ()) in
  let rs =
    match rules with
    | None -> wp.wp_rules
    | Some f -> Obs_snapshot.merge_rules [ wp.wp_rules; f () ]
  in
  let vs =
    match vars with
    | None -> wp.wp_vars
    | Some f -> Obs_snapshot.merge_rules [ wp.wp_vars; f () ]
  in
  Atomic.set wp.wp_slot
    (Some
       { Obs_snapshot.empty with
         counts = c;
         rules = rs;
         vars = vs;
         workers =
           [| { Obs_snapshot.w_id = wp.wp_id;
                w_events =
                  c.Obs_snapshot.events + c.Obs_snapshot.eliminated } |] });
  if standalone then step e

let pub_chunk ?(standalone = false) ?rules ?vars (p : pub)
    ~(current : unit -> Obs_snapshot.counts) : (int * (unit -> unit)) option
    =
  match p with
  | None -> None
  | Some (e, wp) ->
    (* The caller iterates in chunks of [tick_events] events and
       invokes the returned thunk between chunks, so the hot loop
       itself stays exactly the uninstrumented one — no wrapper
       closure, no countdown, no index check. *)
    Some
      ( max 1 wp.wp_tick_events,
        fun () -> tick_publish e wp rules vars ~current ~standalone )

let pub_fold ?(vars = []) (p : pub) ~(counts : Obs_snapshot.counts)
    ~(rules : (string * int) list) =
  match p with
  | None -> ()
  | Some (_, wp) ->
    wp.wp_done <- Obs_snapshot.add wp.wp_done counts;
    wp.wp_rules <- Obs_snapshot.merge_rules [ wp.wp_rules; rules ];
    wp.wp_vars <- Obs_snapshot.merge_rules [ wp.wp_vars; vars ];
    publish p

(* ------------------------------------------------------------------ *)
(* Phases, bases, the collector domain                                *)

let set_phase (t : t) phase =
  match t with
  | None -> ()
  | Some e ->
    Mutex.lock e.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock e.mu)
      (fun () ->
        if e.phase <> phase then begin
          e.phase <- phase;
          emit_locked ~force:true e
        end)

let set_base (t : t) counts =
  match t with
  | None -> ()
  | Some e ->
    Mutex.lock e.mu;
    e.base <- counts;
    Mutex.unlock e.mu

let with_collector (t : t) f =
  match t with
  | None -> f ()
  | Some e ->
    let stop = Atomic.make false in
    (* Poll finer than the period so shutdown is prompt; [step] itself
       gates emission on the period. *)
    let pause = Float.max 0.002 (Float.min e.period 0.02) in
    let dom =
      Domain.spawn (fun () ->
          while not (Atomic.get stop) do
            Unix.sleepf pause;
            step e
          done)
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join dom)
      f

(* ------------------------------------------------------------------ *)
(* Final record                                                       *)

let finish ?(top_vars = []) (t : t) ~wall ~(fields : (string * int) list)
    ~(rules : (string * int) list) ~warnings =
  match t with
  | None -> ()
  | Some e ->
    Mutex.lock e.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock e.mu)
      (fun () ->
        if not e.finished then begin
          e.seq <- e.seq + 1;
          let fld name =
            Option.value ~default:0 (List.assoc_opt name fields)
          in
          let cum_events = fld "events" + fld "eliminated" in
          (* the closing delta bridges the last periodic snapshot to
             the exact final counters, so summing a stream's "d"
             objects reproduces the cumulative totals — the loss-free
             property Obs_snapshot documents *)
          let final_counts =
            { Obs_snapshot.events = fld "events";
              reads = fld "reads";
              writes = fld "writes";
              syncs = fld "syncs";
              eliminated = fld "eliminated";
              epoch_ops = fld "epoch_ops";
              vc_ops = fld "vc_ops";
              vc_ops_skipped = fld "vc_ops_skipped";
              state_words = fld "state_words";
              warnings }
          in
          let delta =
            Obs_snapshot.sub final_counts e.last.Obs_snapshot.counts
          in
          write_line e
            (Obs_json.obj
               [ ("seq", Obs_json.int e.seq);
                 ("at_s", Obs_json.float (now_of e));
                 ("phase", Obs_json.str "done");
                 ("final", Obs_json.bool true);
                 ("cum_events", Obs_json.int cum_events);
                 ("d", counts_json delta);
                 ("cum",
                  Obs_json.obj
                    (List.map (fun (k, v) -> (k, Obs_json.int v)) fields));
                 ("rules",
                  Obs_json.obj
                    (List.map (fun (k, v) -> (k, Obs_json.int v)) rules));
                 ("top_vars",
                  Obs_json.obj
                    (List.filteri (fun i _ -> i < 8) top_vars
                    |> List.map (fun (k, v) -> (k, Obs_json.int v))));
                 ("warnings", Obs_json.int warnings);
                 ("wall_s", Obs_json.float wall) ]);
          e.finished <- true
        end)

let close (t : t) =
  match t with
  | None -> ()
  | Some e ->
    flush e.sink;
    if e.owns_sink then close_out_noerr e.sink
