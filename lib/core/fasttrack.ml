module VC = Vector_clock

let name = "FastTrack"
let shares_clocks = true

(* The READ_SHARED sentinel of Figure 5: a reserved epoch value that
   can never arise as a real epoch because we never let clocks reach
   [Epoch.max_clock]. *)
let read_shared = Epoch.make ~tid:Epoch.max_tid ~clock:Epoch.max_clock

(* Shadow state for one memory location: Figure 5's VarState.  [pc]
   is the profiler's attribution cell, attached directly to the state
   (RoadRunner-style: the hot path increments through a pointer it
   already holds, no table probe); [Obs_prof.no_cell] when profiling
   is off. *)
type var_state = {
  x : Var.t;  (* representative variable, for warning attribution *)
  mutable w : Epoch.t;
  mutable r : Epoch.t;  (* == read_shared iff rvc is in use *)
  mutable rvc : VC.t option;
  pc : Obs_prof.cell;
  pr : int array;
      (* [Obs_prof.cell_rules pc], cached so the hot-path increment is
         one deref off the state we already hold, not two through the
         cell record (the inlined protocol of obs_prof.mli) *)
}

(* record header + 6 fields + hashtable slot, in words; the profiler
   cell and its arrays are billed by the census separately *)
let var_state_words = 9

(* Profiler rule registry: indices into [Obs_prof.cell_rules]; classes
   follow Figure 5's cost column — READ SHARED is an O(1) slot update,
   only READ SHARE and WRITE SHARED walk a VC. *)
let ri_r_same = 0
and ri_r_shared = 1
and ri_r_excl = 2
and ri_r_share = 3
and ri_w_same = 4
and ri_w_excl = 5
and ri_w_shared = 6

let prof_rules =
  [| ("READ SAME EPOCH", Obs_prof.Same_epoch);
     ("READ SHARED", Obs_prof.Epoch);
     ("READ EXCLUSIVE", Obs_prof.Epoch);
     ("READ SHARE", Obs_prof.Vc);
     ("WRITE SAME EPOCH", Obs_prof.Same_epoch);
     ("WRITE EXCLUSIVE", Obs_prof.Epoch);
     ("WRITE SHARED", Obs_prof.Vc) |]

type t = {
  config : Config.t;
  stats : Stats.t;
  sync : Clock_source.t;
  vars : var_state Shadow.t;
  log : Race_log.t;
  adaptive : bool;
  (* flight recorder (Obs_recorder), fetched once: [rec_on] keeps the
     disabled hot path to a single branch per event *)
  recorder : Obs_recorder.t;
  rec_on : bool;
  (* shadow-state profiler (Obs_prof), same cached-bool idiom.  The
     timing-sample countdown lives here: one decrement of an
     already-hot record field per access instead of a cross-module
     call (measured on the bench profile overhead gate). *)
  prof : Obs_prof.t;
  prof_on : bool;
  prof_stride : int;
  mutable prof_count : int;
  mutable prof_sampling : bool;
      (* this access is being timed: the rule that fires must
         [Obs_prof.attribute] its cell (see [prof_bump]) *)
  (* rule hit counters, fetched once so the hot path only increments *)
  r_same_epoch : int ref;
  r_shared : int ref;
  r_exclusive : int ref;
  r_share : int ref;
  w_same_epoch : int ref;
  w_exclusive : int ref;
  w_shared : int ref;
}

(* Reconcile the profiler's class totals from our own rule counters
   (the inlined protocol: the hot path only bumps the per-cell array;
   the redundant global totals are pushed here, at sample and census
   boundaries).  The groupings follow [prof_rules]' class column. *)
let note_totals d =
  Obs_prof.note_totals d.prof
    ~same:(!(d.r_same_epoch) + !(d.w_same_epoch))
    ~epoch:(!(d.r_shared) + !(d.r_exclusive) + !(d.w_exclusive))
    ~vc:(!(d.r_share) + !(d.w_shared))

(* Per-cell attribution, the whole enabled hot path: one unchecked
   increment of the cached rules array, plus the sampled access's
   cell/class handoff (cold: one access per stride). *)
let[@inline always] prof_bump d st i ~vc =
  Array.unsafe_set st.pr i (Array.unsafe_get st.pr i + 1);
  if d.prof_sampling then Obs_prof.attribute d.prof st.pc ~vc

(* Shadow-state census ([Obs_prof.take_census] walker): classify each
   initialized state as epoch-only vs inflated and attribute its
   memory, including the read VC's share (a deflated variable keeps
   its vector allocated for reuse — still billed, not inflated). *)
let census d =
  note_totals d;
  Shadow.iter
    (fun st ->
      let inflated = Epoch.equal st.r read_shared in
      let rvc_words =
        match st.rvc with Some rvc -> VC.heap_words rvc | None -> 0
      in
      Obs_prof.census_var d.prof st.pc ~inflated
        ~words:(var_state_words + rvc_words) ~rvc_words)
    d.vars

let create config =
  let stats = Stats.create () in
  let d =
    { config;
      stats;
      sync = Clock_source.create config stats;
      vars = Shadow.create config.Config.granularity;
      log = Race_log.create ~obs:config.Config.obs ();
      adaptive = (config.Config.granularity = Shadow.Adaptive);
      recorder = config.Config.recorder;
      rec_on = Obs_recorder.is_enabled config.Config.recorder;
      prof = config.Config.prof;
      prof_on = Obs_prof.is_enabled config.Config.prof;
      prof_stride = Obs_prof.sample_stride config.Config.prof;
      prof_count = Obs_prof.sample_stride config.Config.prof;
      prof_sampling = false;
      r_same_epoch = Stats.counter stats "READ SAME EPOCH";
      r_shared = Stats.counter stats "READ SHARED";
      r_exclusive = Stats.counter stats "READ EXCLUSIVE";
      r_share = Stats.counter stats "READ SHARE";
      w_same_epoch = Stats.counter stats "WRITE SAME EPOCH";
      w_exclusive = Stats.counter stats "WRITE EXCLUSIVE";
      w_shared = Stats.counter stats "WRITE SHARED" }
  in
  if d.prof_on then begin
    Obs_prof.register_rules d.prof prof_rules;
    Obs_prof.set_census d.prof (fun () -> census d)
  end;
  d

let new_var_state d x =
  Stats.add_words d.stats var_state_words;
  let pc =
    if d.prof_on then
      Obs_prof.cell d.prof ~key:(Shadow.key d.vars x)
        ~name:(Var.to_string x)
    else Obs_prof.no_cell
  in
  { x; w = Epoch.bottom; r = Epoch.bottom; rvc = None; pc;
    pr = Obs_prof.cell_rules pc }

let var_state d x =
  match Shadow.find d.vars x with
  | Some st -> st
  | None -> Shadow.get d.vars x (new_var_state d)

let report d st ~tid ~index ?prior ?witness kind =
  (* On-line granularity adaptation (Section 5.1): the first coarse
     warning for an object refines it to fine grain instead of being
     reported; the abandoned history is the documented precision
     loss. *)
  if d.adaptive && not (Shadow.refined d.vars st.x) then
    Shadow.refine d.vars st.x
  else
    Race_log.report d.log ~key:(Shadow.key d.vars st.x) ~x:st.x ~tid ~index
      ~kind ?prior ?witness ()

let prior_of_epoch e =
  { Warning.prior_tid = Epoch.tid e; prior_clock = Epoch.clock e }

(* Happens-before witness, captured at the instant a race fires (cold
   path: at most once per shadow key).  [prior_e] is the earlier
   access's epoch from the shadow state; both sides carry their
   thread's full vector clock {e right now} — the second thread's is
   the [ct] the failing ⪯-check just read, and the one component
   [ct(tid prior_e) < clock prior_e] is the proof of unorderedness
   (Witness.unordered re-derives it). *)
let witness_of d st ~tid ~index ~ct ~prior_e kind =
  { Witness.key = Shadow.key d.vars st.x;
    x = st.x;
    kind;
    index;
    first =
      { Witness.s_tid = Epoch.tid prior_e;
        s_epoch = prior_e;
        s_clock = Epoch.clock prior_e;
        s_index = None;
        s_vc = VC.to_list (Clock_source.clock d.sync ~index (Epoch.tid prior_e)) };
    second =
      { Witness.s_tid = tid;
        s_epoch = Clock_source.epoch d.sync ~index tid;
        s_clock = Epoch.clock (Clock_source.epoch d.sync ~index tid);
        s_index = Some index;
        s_vc = VC.to_list ct } }

let epoch_op d = d.stats.epoch_ops <- d.stats.epoch_ops + 1
let vc_op d = d.stats.vc_ops <- d.stats.vc_ops + 1

let read d ~index t x =
  let st = var_state d x in
  let te = Clock_source.epoch d.sync ~index t in
  epoch_op d;
  if d.config.same_epoch_fast_path && Epoch.equal st.r te then begin
    incr d.r_same_epoch;
    if d.prof_on then prof_bump d st ri_r_same ~vc:false
  end
  else begin
    let ct = Clock_source.clock d.sync ~index t in
    (* write-read race? *)
    epoch_op d;
    if not (VC.epoch_leq st.w ct) then
      report d st ~tid:t ~index ~prior:(prior_of_epoch st.w)
        ~witness:
          (witness_of d st ~tid:t ~index ~ct ~prior_e:st.w
             Warning.Write_read)
        Warning.Write_read;
    (* update read state *)
    if Epoch.equal st.r read_shared then begin
      (* [FT READ SHARED] *)
      (match st.rvc with
      | Some rvc -> VC.set rvc t (Epoch.clock te)
      | None -> assert false);
      incr d.r_shared;
      if d.prof_on then prof_bump d st ri_r_shared ~vc:false
    end
    else begin
      epoch_op d;
      if VC.epoch_leq st.r ct then begin
        (* [FT READ EXCLUSIVE] *)
        st.r <- te;
        incr d.r_exclusive;
        if d.prof_on then prof_bump d st ri_r_excl ~vc:false
      end
      else begin
        (* [FT READ SHARE]: the slow path — allocate (or clear) the
           read vector clock and record both concurrent reads. *)
        let rvc =
          match st.rvc with
          | Some rvc ->
            (* Reuse a vector left over from an earlier shared phase,
               but clear it: the rule builds V = ⊥V[t := Ct(t), u := c]. *)
            VC.clear rvc;
            vc_op d;
            rvc
          | None ->
            let rvc = VC.create () in
            d.stats.vc_allocs <- d.stats.vc_allocs + 1;
            Stats.add_words d.stats (VC.heap_words rvc);
            st.rvc <- Some rvc;
            rvc
        in
        VC.set rvc (Epoch.tid st.r) (Epoch.clock st.r);
        VC.set rvc t (Epoch.clock te);
        st.r <- read_shared;
        incr d.r_share;
        if d.prof_on then begin
          prof_bump d st ri_r_share ~vc:true;
          (* the read history just inflated to a vector clock *)
          Obs_prof.inflate d.prof st.pc
        end
      end
    end
  end

let write d ~index t x =
  let st = var_state d x in
  let te = Clock_source.epoch d.sync ~index t in
  epoch_op d;
  if d.config.same_epoch_fast_path && Epoch.equal st.w te then begin
    incr d.w_same_epoch;
    if d.prof_on then prof_bump d st ri_w_same ~vc:false
  end
  else begin
    let ct = Clock_source.clock d.sync ~index t in
    (* write-write race? *)
    epoch_op d;
    if not (VC.epoch_leq st.w ct) then
      report d st ~tid:t ~index ~prior:(prior_of_epoch st.w)
        ~witness:
          (witness_of d st ~tid:t ~index ~ct ~prior_e:st.w
             Warning.Write_write)
        Warning.Write_write;
    (* read-write race? *)
    if not (Epoch.equal st.r read_shared) then begin
      (* [FT WRITE EXCLUSIVE] *)
      epoch_op d;
      if not (VC.epoch_leq st.r ct) then
        report d st ~tid:t ~index ~prior:(prior_of_epoch st.r)
          ~witness:
            (witness_of d st ~tid:t ~index ~ct ~prior_e:st.r
               Warning.Read_write)
          Warning.Read_write;
      incr d.w_exclusive;
      if d.prof_on then prof_bump d st ri_w_excl ~vc:false
    end
    else begin
      (* [FT WRITE SHARED]: the slow path — full VC comparison, then
         demote the read history back to epoch mode. *)
      (match st.rvc with
      | Some rvc -> (
        vc_op d;
        match VC.find_gt rvc ct with
        | Some (u, c) ->
          report d st ~tid:t ~index
            ~prior:{ Warning.prior_tid = u; prior_clock = c }
            ~witness:
              (witness_of d st ~tid:t ~index ~ct
                 ~prior_e:(Epoch.make ~tid:u ~clock:c)
                 Warning.Read_write)
            Warning.Read_write
        | None -> ())
      | None -> assert false);
      if d.config.read_demotion then begin
        st.r <- Epoch.bottom;
        (* read history demoted back to epoch mode *)
        if d.prof_on then Obs_prof.deflate d.prof st.pc
      end;
      incr d.w_shared;
      if d.prof_on then prof_bump d st ri_w_shared ~vc:true
    end;
    st.w <- te
  end

(* Flight-recorder hook (O(1) per event, cold unless --explain/--report
   turned the recorder on): push accesses into the per-variable ring,
   keep the per-thread held-lock picture current.  Reads the epoch the
   analysis itself is about to use, so the recorded history lines up
   with the warnings. *)
let record_event d ~index e =
  match e with
  | Event.Read { t; x } ->
    let te = Clock_source.epoch d.sync ~index t in
    Obs_recorder.record d.recorder ~key:(Shadow.key d.vars x) ~index
      ~tid:t ~op:Obs_recorder.Read ~epoch:(Epoch.to_int te)
      ~clock:(Epoch.clock te)
  | Event.Write { t; x } ->
    let te = Clock_source.epoch d.sync ~index t in
    Obs_recorder.record d.recorder ~key:(Shadow.key d.vars x) ~index
      ~tid:t ~op:Obs_recorder.Write ~epoch:(Epoch.to_int te)
      ~clock:(Epoch.clock te)
  | Event.Acquire { t; m } -> Obs_recorder.note_acquire d.recorder ~tid:t ~lock:m
  | Event.Release { t; m } -> Obs_recorder.note_release d.recorder ~tid:t ~lock:m
  | _ -> ()

let analyze d ~index e =
  match e with
  | Event.Read { t; x } -> read d ~index t x
  | Event.Write { t; x } -> write d ~index t x
  | _ -> assert false (* handle_sync covers everything else *)

let on_event d ~index e =
  Stats.count_event d.stats e;
  if d.rec_on then record_event d ~index e;
  if not (Clock_source.handle_sync d.sync e) then
    if d.prof_on then begin
      d.prof_count <- d.prof_count - 1;
      if d.prof_count <= 0 then begin
        (* sampled timing: bracket one access in [sample_stride] with
           the monotonic clock; [Obs_prof.sample] attributes the
           duration to the cell and cost class of the rule that fired *)
        d.prof_count <- d.prof_stride;
        d.prof_sampling <- true;
        let t0 = Obs_clock.now () in
        analyze d ~index e;
        let ns = (Obs_clock.now () -. t0) *. 1e9 in
        d.prof_sampling <- false;
        note_totals d;
        Obs_prof.sample d.prof ~ns
      end
      else analyze d ~index e
    end
    else analyze d ~index e

(* An access the caller chose not to analyze (the sampling tier's
   rejected coin): shown to the flight recorder — which documents the
   trace, not the sample — and dropped before any shadow or sync state
   is touched.  The caller counts it. *)
let skip d ~index e = if d.rec_on then record_event d ~index e

let warnings d = Race_log.warnings d.log
let witnesses d = Race_log.witnesses d.log
let stats d = d.stats

type repr = {
  write : Epoch.t;
  read : [ `Epoch of Epoch.t | `Shared of Vector_clock.t ];
}

let inspect d x =
  match Shadow.find d.vars x with
  | None -> None
  | Some st ->
    let read =
      if Epoch.equal st.r read_shared then
        match st.rvc with
        | Some rvc -> `Shared (VC.copy rvc)
        | None -> assert false
      else `Epoch st.r
    in
    Some { write = st.w; read }

let current_epoch d t = Clock_source.epoch d.sync ~index:max_int t
