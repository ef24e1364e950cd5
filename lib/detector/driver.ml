type shard_info = {
  shard_id : int;
  shard_accesses : int;
  shard_syncs : int;
  shard_wall : float;
  shard_warnings : int;
}

type result = {
  tool : string;
  warnings : Warning.t list;
  witnesses : Witness.t list;
  stats : Stats.t;
  cpu : float;
  wall : float;
  prefix_wall : float;
  shards : shard_info array;
  imbalance : float;
  plan_kind : Shard.kind;
  slots : int;
}

let prefix_frac r = if r.wall > 0. then r.prefix_wall /. r.wall else 0.

let time f =
  let start = Sys.time () in
  let x = f () in
  (x, Sys.time () -. start)

(* Flatten a detector's live counters into the plain record the
   telemetry bus publishes.  Only ever called on the domain that owns
   [st] (between the unit's windows, at publish granularity), so the
   unsynchronized reads are safe; a torn read across fields would only
   smear one snapshot anyway. *)
let live_counts (st : Stats.t) ~extra_elim ~warnings =
  { Obs_snapshot.events = st.Stats.events;
    reads = st.Stats.reads;
    writes = st.Stats.writes;
    syncs = st.Stats.syncs;
    eliminated = st.Stats.eliminated + extra_elim;
    epoch_ops = st.Stats.epoch_ops;
    vc_ops = st.Stats.vc_ops;
    vc_ops_skipped = st.Stats.vc_ops_skipped;
    state_words = st.Stats.state_words;
    warnings }

(* Final live record, from the same merged counters the --metrics
   export writes — the stream's cumulative totals must equal the
   ftrace.obs/2 document to the last integer.  [prof] (the run's
   merged profiler, if any) contributes the final hot-variable
   standings. *)
let finish_live ~prof live r ~wall =
  if Obs_live.is_enabled live then
    Obs_live.finish live ~wall
      ~top_vars:(Obs_prof.hot_alist ~k:8 prof)
      ~fields:(Stats.fields_alist r.stats)
      ~rules:(Stats.rules_alist r.stats)
      ~warnings:(List.length r.warnings)

(* ------------------------------------------------------------------ *)
(* The analysis unit: one detector instance over one event source.    *)

(* FastTrack analyses each variable against the sync prefix before it
   only, so the sequential run, a broadcast shard and a stealing item
   are one job over different event sources: the whole trace, the
   trace filtered to one shard's variables, one item's indices.  A
   source is its length plus a range iterator; windows of it are
   given in source positions. *)
type source = {
  length : int;
  iter_range : lo:int -> hi:int -> (int -> Event.t -> unit) -> unit;
}

let trace_source tr =
  { length = Trace.length tr;
    iter_range = (fun ~lo ~hi f -> Trace.iter_range ~lo ~hi f tr) }

let shard_source ~jobs ~shard tr =
  { length = Trace.length tr;
    iter_range = (fun ~lo ~hi f -> Trace.iter_shard ~lo ~hi ~jobs ~shard f tr) }

let item_source (s : Shard.t) =
  { length = Shard.length s;
    iter_range = (fun ~lo ~hi f -> Shard.iter_range ~lo ~hi f s) }

type outcome = {
  o_warnings : Warning.t list;
  o_witnesses : Witness.t list;
  o_stats : Stats.t;
  o_wall : float;
  o_rec : Obs_recorder.t;  (* the unit's private views, folded into *)
  o_prof : Obs_prof.t;     (* the run's handles by [merge] *)
}

(* Run one unit.  The detector gets private flight-recorder and
   profiler views (fresh rings and lock picture, fresh cells): units
   may run concurrently, and variable ownership makes the views' keys
   disjoint, so [merge] moves them back.  [gc] takes
   the GC sampler's periodic samples (the sequential run only).
   [skip] is the certified-variable predicate: accesses it accepts
   never reach the detector, and since accesses cannot modify the sync
   state every other variable's analysis is unchanged.  [span] names
   the unit's span from its stats and warning count; the span and the
   returned wall cover the walk over the source only, not
   instantiation, census or fold.

   Each branch below is chosen once, outside the loop: with every
   hook off the loop calls the packed handler itself over the whole
   source.  Otherwise the source is walked in windows that end at
   every multiple of each hook's period, and a hook runs after each
   window ending at one of its multiples, so the per-event path stays
   the same handler: the live publish every [tick_events] positions
   (the unit's final counts follow in [pub_fold]), a GC sample every
   [gc_every] positions (⌊length / gc_every⌋ samples). *)
let analyze_unit ?(gc = Obs.disabled) ?(standalone = false) ?skip ~obs
    ~pub ~span d config src =
  let rec_view = Obs_recorder.shard_view config.Config.recorder in
  let prof_view = Obs_prof.shard_view config.Config.prof in
  let packed =
    Detector.instantiate d
      (Config.with_prof prof_view (Config.with_recorder rec_view config))
  in
  let on_event = Detector.packed_handler packed in
  let eliminated = ref 0 in
  let on_event =
    match skip with
    | None -> on_event
    | Some certified ->
      fun index e ->
        (match e with
        | (Event.Read { x; _ } | Event.Write { x; _ }) when certified x ->
          incr eliminated
        | _ -> on_event index e)
  in
  let st = Detector.packed_stats packed in
  let warning_count () = List.length (Detector.packed_warnings packed) in
  let hooks =
    List.filter_map Fun.id
      [ (* [current] is read on this unit's own domain, at publish
           granularity only. *)
        Obs_live.pub_chunk ~standalone pub
          ~current:(fun () ->
            live_counts st ~extra_elim:!eliminated
              ~warnings:(warning_count ()))
          ~rules:(fun () -> Stats.rules_alist st)
          ~vars:(fun () -> Obs_prof.hot_alist ~k:8 prof_view);
        Obs.gc_window gc ]
  in
  let iterate =
    match hooks with
    | [] -> fun () -> src.iter_range ~lo:0 ~hi:src.length on_event
    | hooks ->
      fun () ->
        let rec go lo =
          if lo < src.length then begin
            let hi =
              List.fold_left
                (fun hi (every, _) -> min hi ((lo / every + 1) * every))
                src.length hooks
            in
            src.iter_range ~lo ~hi on_event;
            List.iter
              (fun (every, hook) -> if hi mod every = 0 then hook ())
              hooks;
            go hi
          end
        in
        go 0
  in
  let start = Obs.now obs in
  let (), wall = Obs_clock.wall_time iterate in
  st.Stats.eliminated <- st.Stats.eliminated + !eliminated;
  (* End-of-unit shadow census, over this unit's cells only (cold: one
     walk of the final shadow state, only when profiling is on). *)
  Obs_prof.take_census prof_view;
  Obs_live.pub_fold pub
    ~vars:(Obs_prof.hot_alist ~k:8 prof_view)
    ~counts:(live_counts st ~extra_elim:0 ~warnings:(warning_count ()))
    ~rules:(Stats.rules_alist st);
  let name, attrs = span st (warning_count ()) in
  Obs.record_span obs ~name ~start ~duration:wall ~attrs ();
  { o_warnings = Detector.packed_warnings packed;
    o_witnesses = Detector.packed_witnesses packed;
    o_stats = st;
    o_wall = wall;
    o_rec = rec_view;
    o_prof = prof_view }

(* Fold a run's units into one result ([cpu]/[wall] are filled in by
   the caller).  [groups.(k)] lists the units of shard (static) or
   claiming worker (stealing) [k]; the sequential run has no table.
   [base] holds counters no unit owns (the stealing prefix).

   Units own disjoint shadow keys and at most one warning is recorded
   per key, so no two units warn at the same trace index: sorting by
   index reconstructs the sequential run's chronological warning list
   exactly.  Witnesses ride the same argument (they are captured
   beside the warnings, one per key at most). *)
let merge (module D : Detector.S) config ?base ~groups ~plan_kind ~slots
    ?(prefix_wall = 0.) units =
  Array.iter
    (fun u ->
      Obs_recorder.merge ~into:config.Config.recorder u.o_rec;
      Obs_prof.merge ~into:config.Config.prof u.o_prof)
    units;
  let shards =
    Array.mapi
      (fun shard_id ids ->
        let sum f = List.fold_left (fun acc i -> acc + f units.(i)) 0 ids in
        { shard_id;
          shard_accesses =
            sum (fun u -> u.o_stats.Stats.reads + u.o_stats.Stats.writes);
          shard_syncs = sum (fun u -> u.o_stats.Stats.syncs);
          shard_wall =
            List.fold_left (fun acc i -> acc +. units.(i).o_wall) 0. ids;
          shard_warnings = sum (fun u -> List.length u.o_warnings) })
      groups
  in
  let units = Array.to_list units in
  { tool = D.name;
    warnings =
      List.concat_map (fun u -> u.o_warnings) units
      |> List.stable_sort Warning.compare;
    witnesses =
      List.concat_map (fun u -> u.o_witnesses) units
      |> List.stable_sort (fun (a : Witness.t) b ->
             Int.compare a.Witness.index b.Witness.index);
    stats =
      Stats.sum (Option.to_list base @ List.map (fun u -> u.o_stats) units);
    cpu = 0.;
    wall = 0.;
    prefix_wall;
    shards;
    imbalance =
      Shard.imbalance_of_counts
        (Array.map (fun si -> si.shard_accesses) shards);
    plan_kind;
    slots }

(* The end-of-run tail every driver shares.  Cold: once per run, and
   each step only does work when its hook is on. *)
let finish config r =
  Obs.gc_sample_final config.Config.obs;
  finish_live ~prof:config.Config.prof config.Config.live r ~wall:r.wall;
  r

let run ?(config = Config.default) d tr =
  let obs = config.Config.obs in
  (* The sequential run has no collector domain, so its publisher is
     standalone: the publish drives emission itself. *)
  let pub = Obs_live.publisher config.Config.live ~worker:0 in
  Obs_live.set_phase config.Config.live "analyze";
  Obs.gc_sample obs;
  let cpu0 = Sys.time () in
  let u =
    analyze_unit ~gc:obs ~standalone:true ?skip:config.Config.static_elim
      ~obs ~pub
      ~span:(fun _ _ -> ("analyze", []))
      d config (trace_source tr)
  in
  let cpu = Sys.time () -. cpu0 in
  finish config
    { (merge d config ~groups:[||] ~plan_kind:Shard.Static ~slots:1 [| u |])
      with cpu; wall = u.o_wall }

(* ------------------------------------------------------------------ *)
(* Sharded parallel driver (see lib/parallel and DESIGN.md).          *)

let default_jobs = Domain_pool.recommended_jobs

(* Static plan: one broadcast shard per domain.  Every sync event
   reaches every shard; certified accesses are dropped before each
   shard's detector, the sync stream never. *)
let run_static config ~jobs d tr =
  let obs = config.Config.obs in
  let live = config.Config.live in
  Obs.gc_sample obs;
  Obs_live.set_phase live "analyze";
  let cpu0 = Sys.time () in
  let units, wall =
    (* The collector domain merges the shards' published partials and
       emits records for the duration of the region. *)
    Obs_live.with_collector live (fun () ->
        Par_run.map ~obs ~jobs (fun ~shard ->
            analyze_unit ~obs ~pub:(Obs_live.publisher live ~worker:shard)
              ?skip:config.Config.static_elim
              ~span:(fun (st : Stats.t) warnings ->
                let accesses = st.Stats.reads + st.Stats.writes in
                ( Printf.sprintf "shard-%d" shard,
                  [ ("accesses", Obs_span.Int accesses);
                    ("broadcast_replays", Obs_span.Int st.Stats.syncs);
                    ("warnings", Obs_span.Int warnings) ] ))
              d config (shard_source ~jobs ~shard tr)))
  in
  (* On Linux, [Sys.time]'s clock sums CPU across the region's
     domains, so this is detector work, not wall x jobs. *)
  let cpu = Sys.time () -. cpu0 in
  Obs_live.set_phase live "merge";
  let r =
    Obs.span obs "merge" (fun () ->
        merge d config ~groups:(Array.init jobs (fun i -> [ i ]))
          ~plan_kind:Shard.Static ~slots:jobs units)
  in
  finish config { r with cpu; wall }

(* ------------------------------------------------------------------ *)
(* Work-stealing driver: shared sync timeline + dynamic item queue.   *)

(* The timeline's build cost, folded into the merged stats so the
   stealing run's totals remain comparable with the sequential run's:
   its events are exactly the non-access events the items never see
   (merged [events] = accesses + sync + other = trace length), and its
   vc_ops/vc_allocs/words are the one shared sync replay — where the
   static plan pays jobs x that. *)
let stats_of_timeline (ts : Sync_timeline.stats) =
  let s = Stats.create () in
  s.Stats.events <- ts.Sync_timeline.sync_events + ts.Sync_timeline.other_events;
  s.Stats.syncs <- ts.Sync_timeline.sync_events;
  s.Stats.vc_ops <- ts.Sync_timeline.vc_ops;
  s.Stats.vc_ops_skipped <- ts.Sync_timeline.vc_ops_skipped;
  s.Stats.vc_allocs <- ts.Sync_timeline.vc_allocs;
  Stats.add_words s ts.Sync_timeline.words;
  s

(* Stealing plan: access-only items resolve sync lookups against the
   shared timeline (the item config's [sync_source]); cursor state is
   private to each instance, so items run concurrently. *)
let run_stealing config ~jobs d tr =
  let obs = config.Config.obs in
  let live = config.Config.live in
  Obs.gc_sample obs;
  let cpu0 = Sys.time () in
  let r, wall =
    (* Unlike the static path, the prefix (routing + timeline) is part
       of the measured wall time: it is real Amdahl cost of this plan,
       and charging it keeps the jobs-sweep speedups honest. *)
    Obs_clock.wall_time (fun () ->
        (* The prefix is itself parallel (segmented routing with a
           pipelined timeline build, see Prefix): what remains serial
           is the sync replay — ~3% of the trace — and the stitch.
           Elimination happens here, at routing time: certified
           accesses never even enter a work item. *)
        Obs_live.set_phase live "prefix";
        let prefix =
          Prefix.build ~obs ?skip:config.Config.static_elim ~jobs tr
        in
        let plan = prefix.Prefix.plan in
        let timeline = prefix.Prefix.timeline in
        (* The prefix's work — timeline replay events and routed-out
           (eliminated) accesses — is owned by no unit: it is the
           merge's base and, mid-run, the bus base. *)
        let base = stats_of_timeline (Sync_timeline.stats timeline) in
        base.Stats.eliminated <- prefix.Prefix.prepass.Shard.pp_eliminated;
        if Obs_live.is_enabled live then
          Obs_live.set_base live (live_counts base ~extra_elim:0 ~warnings:0);
        Obs_live.set_phase live "analyze";
        (* Empty items (slots owning no live object) are dropped, not
           scheduled; LPT order is preserved. *)
        let items =
          Array.of_seq
            (Seq.filter
               (fun s -> Shard.length s > 0)
               (Array.to_seq plan.Shard.shards))
        in
        let item_config = Config.with_sync_source timeline config in
        (* With every access routed out no item runs; a fresh instance
           still names the detector's rules, so the merged stats list
           them (at 0) as every other plan does. *)
        if items = [||] then
          List.iter
            (fun (name, _) -> ignore (Stats.counter base name))
            (Stats.rules_alist
               (Detector.packed_stats
                  (Detector.instantiate d
                     (Config.with_prof Obs_prof.disabled item_config))));
        (* One live publisher per worker, created up front on the
           calling domain; it outlives the worker's items, which are
           folded into it as they complete. *)
        let pubs =
          Array.init (max 1 jobs) (fun w -> Obs_live.publisher live ~worker:w)
        in
        let (units, claimed), _region_wall =
          Obs_live.with_collector live (fun () ->
              Par_run.queue ~obs ~jobs ~tasks:(Array.length items)
                (fun ~worker ~task ->
                  let s = items.(task) in
                  analyze_unit ~obs ~pub:pubs.(worker)
                    ~span:(fun _ warnings ->
                      ( Printf.sprintf "item-%d" s.Shard.shard_id,
                        [ ("accesses", Obs_span.Int s.Shard.accesses);
                          ("warnings", Obs_span.Int warnings) ] ))
                    d item_config (item_source s)))
        in
        Obs_live.set_phase live "merge";
        (* Per-worker accounting, the dynamic-queue analogue of the
           static per-shard table ([shard_syncs] is 0: items replay no
           sync events). *)
        Obs.span obs "merge" (fun () ->
            merge d config ~base ~groups:claimed ~plan_kind:Shard.Stealing
              ~slots:plan.Shard.slots ~prefix_wall:prefix.Prefix.wall units))
  in
  let cpu = Sys.time () -. cpu0 in
  finish config { r with cpu; wall }

let parallel_plan ?(config = Config.default) ?plan d =
  let (module D : Detector.S) = d in
  let recorder = Obs_recorder.is_enabled config.Config.recorder in
  (* The stealing plan resolves every sync lookup through the shared
     timeline and its items carry no sync events, so it needs a
     detector that [shares_clocks] and no flight recorder (which
     tracks held locks from the sync stream, per unit). *)
  match plan with
  | Some Shard.Stealing when not D.shares_clocks ->
    invalid_arg
      (Printf.sprintf
         "Driver.run_parallel: the stealing plan needs a detector that \
          shares clocks; %s keeps private sync state"
         D.name)
  | Some Shard.Stealing when recorder ->
    invalid_arg
      "Driver.run_parallel: the stealing plan cannot run the flight \
       recorder (its items see no lock events)"
  | Some kind -> kind
  | None when D.shares_clocks && not recorder -> Shard.Stealing
  | None -> Shard.Static

let run_parallel ?(config = Config.default) ?jobs ?plan d tr =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  match parallel_plan ~config ?plan d with
  | Shard.Stealing -> run_stealing config ~jobs d tr
  | Shard.Static -> run_static config ~jobs d tr

(* Every broadcast shard counts every non-access event; the stealing
   plan counts them once, in its timeline base. *)
let stream_events ?parallel tr =
  match parallel with
  | Some (Shard.Static, jobs) ->
    let reads, writes, _ = Trace.counts tr in
    let n = Trace.length tr in
    n + ((max 1 jobs - 1) * (n - reads - writes))
  | Some (Shard.Stealing, _) | None -> Trace.length tr

(* ------------------------------------------------------------------ *)
(* Metrics-document assembly (the [--metrics FILE] payload).          *)

let shard_info_json si =
  Obs_json.obj
    [ ("shard", Obs_json.int si.shard_id);
      ("accesses", Obs_json.int si.shard_accesses);
      ("broadcast_replays", Obs_json.int si.shard_syncs);
      ("wall_s", Obs_json.float si.shard_wall);
      ("warnings", Obs_json.int si.shard_warnings) ]

let result_json ?(source = "") r =
  Obs_json.obj
    [ ("tool", Obs_json.str r.tool);
      ("source", Obs_json.str source);
      ("jobs", Obs_json.int (max 1 (Array.length r.shards)));
      ("plan", Obs_json.str (Shard.kind_to_string r.plan_kind));
      ("slots", Obs_json.int r.slots);
      ("warnings", Obs_json.int (List.length r.warnings));
      ("witnesses", Obs_json.int (List.length r.witnesses));
      ("cpu_s", Obs_json.float r.cpu);
      ("wall_s", Obs_json.float r.wall);
      ("prefix_wall_s", Obs_json.float r.prefix_wall);
      ("prefix_frac", Obs_json.float (prefix_frac r));
      ("imbalance", Obs_json.float r.imbalance);
      ("shards", Obs_json.arr (Array.to_list (Array.map shard_info_json r.shards)));
      ("stats",
       Obs_json.obj
         (List.map
            (fun (k, v) -> (k, Obs_json.int v))
            (Stats.fields_alist r.stats)));
      ("rules",
       Obs_json.obj
         (List.map
            (fun (k, v) -> (k, Obs_json.int v))
            (Stats.rules_alist r.stats))) ]

let export_metrics ?source ~obs r =
  Obs_export.to_string ~extra:[ ("run", result_json ?source r) ] obs

let write_metrics ?source ~obs ~path r =
  Obs_export.write_file ~path
    ~extra:[ ("run", result_json ?source r) ]
    obs

(* ------------------------------------------------------------------ *)

(* A volatile-ish sink the optimizer cannot delete. *)
let sink = ref 0

let replay ?(repeat = 1) tr =
  let (), elapsed =
    Obs_clock.wall_time (fun () ->
        for _ = 1 to repeat do
          Trace.iter
            (fun e -> if Event.is_access e then sink := !sink + 1)
            tr
        done)
  in
  elapsed /. float_of_int repeat
