(* Sync_timeline's contract: its lookups reproduce, at every trace
   position, exactly the synchronization state a sequential [Vc_state]
   replay would have accumulated — clocks, epochs, held-lock sets and
   barrier generations.  This is the load-bearing invariant behind the
   work-stealing plan's byte-identical warnings: the proof in
   DESIGN.md reduces seq ≡ par to "the timeline is a faithful oracle
   for the sync prefix", and this suite checks that oracle
   property-style over generated feasible traces plus every built-in
   workload. *)

module VC = Vector_clock

let gen_params : (string * Trace_gen.params) list =
  [ ( "mixed",
      { Trace_gen.threads = 4; vars = 6; locks = 3; volatiles = 2;
        length = 300; profile = Trace_gen.Mixed; barriers = true } );
    ( "synchronized",
      { Trace_gen.threads = 3; vars = 4; locks = 2; volatiles = 1;
        length = 250; profile = Trace_gen.Synchronized; barriers = false } );
    ( "racy",
      { Trace_gen.threads = 5; vars = 8; locks = 1; volatiles = 1;
        length = 350; profile = Trace_gen.Racy; barriers = true } ) ]

let seeds = [ 1; 2; 3; 5; 8; 13; 21; 34 ]

(* At every prefix boundary [i] (state after events [0 .. i-1]), the
   timeline's clock and epoch lookups at [~index:i] must equal the
   live replayed [Vc_state]'s.  [VC.to_list] trims trailing zeros, so
   the comparison is representation-independent.  Returns, per thread,
   the trace indices of the sync events that changed its clock — the
   timeline's checkpoints after the initial one. *)
let check_oracle name tr =
  let tl = Sync_timeline.build tr in
  let cur = Sync_timeline.cursor tl in
  let nthreads = Sync_timeline.thread_count tl in
  let st = Vc_state.create (Stats.create ()) in
  let held = Array.make nthreads [] in
  let barrier_gen = ref 0 in
  let len = Trace.length tr in
  let prev = Array.make nthreads [] and changes = Array.make nthreads [] in
  for i = 0 to len do
    for t = 0 to nthreads - 1 do
      let live = VC.to_list (Vc_state.clock st t) in
      if i > 0 && live <> prev.(t) then changes.(t) <- (i - 1) :: changes.(t);
      prev.(t) <- live;
      let shared = VC.to_list (Sync_timeline.clock cur ~index:i t) in
      if live <> shared then
        Alcotest.failf "%s: clock mismatch at index %d, thread %d" name i
          t;
      if Vc_state.epoch st t <> Sync_timeline.epoch cur ~index:i t then
        Alcotest.failf "%s: epoch mismatch at index %d, thread %d" name i
          t;
      let _, locks = Sync_timeline.held_locks cur ~index:i t in
      if List.sort compare held.(t) <> locks then
        Alcotest.failf "%s: held-lock mismatch at index %d, thread %d"
          name i t
    done;
    if Sync_timeline.barrier_generation cur ~index:i <> !barrier_gen then
      Alcotest.failf "%s: barrier generation mismatch at index %d" name i;
    if i < len then begin
      let e = Trace.get tr i in
      ignore (Vc_state.handle_sync st e);
      match e with
      | Event.Acquire { t; m } -> held.(t) <- m :: held.(t)
      | Event.Release { t; m } ->
        held.(t) <- List.filter (fun m' -> m' <> m) held.(t)
      | Event.Barrier_release _ -> incr barrier_gen
      | _ -> ()
    end
  done;
  Array.map List.rev changes

let test_generated () =
  List.iter
    (fun (pname, params) ->
      List.iter
        (fun seed ->
          let tr = Trace_gen.generate ~seed params in
          Alcotest.(check int)
            (Printf.sprintf "%s/%d: generated trace is valid" pname seed)
            0
            (List.length (Validity.check tr));
          ignore (check_oracle (Printf.sprintf "%s/seed %d" pname seed) tr))
        seeds)
    gen_params

let test_workloads () =
  List.iter
    (fun (w : Workload.t) ->
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      ignore (check_oracle w.name tr))
    Workloads.all

(* Stamp semantics: for one thread, equal stamps always denote the
   identical held-lock list — the contract [Lockset.Held_view]'s
   memoization relies on. *)
let test_stamps () =
  let tr =
    Trace_gen.generate ~seed:42
      { Trace_gen.default with
        Trace_gen.threads = 3; vars = 4; locks = 3; length = 300;
        profile = Trace_gen.Mixed; barriers = false }
  in
  let tl = Sync_timeline.build tr in
  let cur = Sync_timeline.cursor tl in
  let memo = Hashtbl.create 64 in
  for i = 0 to Trace.length tr do
    for t = 0 to Sync_timeline.thread_count tl - 1 do
      let stamp, locks = Sync_timeline.held_locks cur ~index:i t in
      match Hashtbl.find_opt memo (t, stamp) with
      | None -> Hashtbl.add memo (t, stamp) locks
      | Some prev ->
        if prev <> locks then
          Alcotest.failf
            "thread %d stamp %d maps to two different lock sets" t stamp
    done
  done

(* Cursor index regressions are legal (a fresh item may start behind a
   previous item's last lookup): compare a deliberately non-monotone
   query sequence against fresh-cursor answers. *)
let test_regression () =
  let tr =
    Trace_gen.generate ~seed:9
      { Trace_gen.default with
        Trace_gen.threads = 4; length = 300; profile = Trace_gen.Mixed;
        barriers = true }
  in
  let tl = Sync_timeline.build tr in
  let cur = Sync_timeline.cursor tl in
  let len = Trace.length tr in
  let indices =
    [ len; 1; len / 2; len / 2; 3; len - 1; 0; len / 3; len ]
  in
  List.iter
    (fun i ->
      let i = max 0 (min len i) in
      for t = 0 to Sync_timeline.thread_count tl - 1 do
        let fresh = Sync_timeline.cursor tl in
        let a = VC.to_list (Sync_timeline.clock cur ~index:i t) in
        let b = VC.to_list (Sync_timeline.clock fresh ~index:i t) in
        if a <> b then
          Alcotest.failf "regression: clock mismatch at index %d thread %d"
            i t;
        let _, la = Sync_timeline.held_locks cur ~index:i t in
        let _, lb = Sync_timeline.held_locks fresh ~index:i t in
        if la <> lb then
          Alcotest.failf
            "regression: held-lock mismatch at index %d thread %d" i t
      done;
      let fresh = Sync_timeline.cursor tl in
      if
        Sync_timeline.barrier_generation cur ~index:i
        <> Sync_timeline.barrier_generation fresh ~index:i
      then Alcotest.failf "regression: barrier mismatch at index %d" i)
    indices

(* Per-thread checkpoint counts (the initial one included) and the
   trace indices of the keyframes among them, from the oracle replay. *)
let checkpoints_of changes = Array.map (fun l -> 1 + List.length l) changes

let keyframe_indices changes =
  Array.map
    (fun l ->
      List.filteri (fun j _ -> (j + 1) mod Sync_timeline.key_every = 0) l)
    changes

let ceil_div a b = (a + b - 1) / b

(* A lock- and volatile-synchronized program whose four threads all
   live for the whole run, so each records several keyframes and seeks
   take the keyframe jump, not just the delta walk from a thread's
   first checkpoint.  (Trace_gen joins its forked threads within a few
   dozen events: none but thread 0 reaches [key_every] checkpoints.) *)
let keyframe_case =
  lazy
    (let a = Patterns.alloc () in
     let locks = Array.init 2 (fun _ -> Patterns.lock a) in
     let guarded = Patterns.vars a 2 in
     let v = Patterns.volatile a in
     let loop t =
       List.concat
         (List.init 1000 (fun i ->
              let m = (i + t) mod 2 in
              [ Program.Acquire locks.(m);
                Program.Read guarded.(m);
                Program.Write guarded.(m);
                Program.Release locks.(m);
                (if (i + t) mod 3 = 0 then Program.Volatile_write v
                 else Program.Volatile_read v) ]))
     in
     let workers = [ 1; 2; 3 ] in
     let main =
       { Program.tid = 0;
         body =
           List.map (fun t -> Program.Fork t) workers
           @ loop 0
           @ List.map (fun t -> Program.Join t) workers }
     in
     let tr =
       Scheduler.run
         ~options:{ Scheduler.default_options with seed = 4 }
         (Program.make
            (main
            :: List.map (fun tid -> { Program.tid; body = loop tid }) workers))
     in
     (tr, check_oracle "keyframe trace" tr))

let test_keyframes () =
  let _, changes = Lazy.force keyframe_case in
  Array.iteri
    (fun t n ->
      if ceil_div n Sync_timeline.key_every < 4 then
        Alcotest.failf "thread %d records only %d checkpoints" t n)
    (checkpoints_of changes)

(* Random non-monotone query sequences on one cursor answer exactly as
   a fresh cursor does, with half the queries on either side of a
   keyframe: the last delta before it and the keyframe itself. *)
let prop_keyframe_seeks =
  let case =
    lazy
      (let tr, changes = Lazy.force keyframe_case in
       let boundaries =
         List.concat_map
           (fun at -> [ at; at + 1 ])
           (List.concat (Array.to_list (keyframe_indices changes)))
       in
       (Sync_timeline.build tr, Trace.length tr, Array.of_list boundaries))
  in
  (* Raw draws, resolved against the (lazily built) trace in the law. *)
  let query =
    QCheck2.Gen.(triple bool (int_bound 1_000_000) (int_bound 1_000))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"keyframe seeks ≡ fresh cursor"
       QCheck2.Gen.(list_size (int_range 1 60) query)
       (fun queries ->
         let tl, len, boundaries = Lazy.force case in
         let cur = Sync_timeline.cursor tl in
         List.for_all
           (fun (near_key, i, t) ->
             let index =
               if near_key then boundaries.(i mod Array.length boundaries)
               else i mod (len + 1)
             in
             let t = t mod Sync_timeline.thread_count tl in
             let fresh = Sync_timeline.cursor tl in
             VC.to_list (Sync_timeline.clock cur ~index t)
             = VC.to_list (Sync_timeline.clock fresh ~index t)
             && Sync_timeline.epoch cur ~index t
                = Sync_timeline.epoch fresh ~index t)
           queries))

(* Delta accounting: one keyframe per [key_every] checkpoints of each
   thread, skips for sync events that leave a clock unchanged, and a
   footprint that grows with what the events raised rather than with
   checkpoints x threads. *)
let test_delta_accounting () =
  let w = Option.get (Workloads.find "moldyn") in
  let tr = Workload.trace ~seed:11 ~scale:1 w in
  let tl = Sync_timeline.build tr in
  let s = Sync_timeline.stats tl in
  let cps = checkpoints_of (check_oracle "moldyn" tr) in
  Alcotest.(check int) "checkpoints = clock changes + initial states"
    (Array.fold_left ( + ) 0 cps) s.Sync_timeline.checkpoints;
  Alcotest.(check int) "snapshots = Σ_t ⌈checkpoints_t / key_every⌉"
    (Array.fold_left
       (fun acc n -> acc + ceil_div n Sync_timeline.key_every)
       0 cps)
    s.Sync_timeline.snapshots;
  Alcotest.(check bool) "unchanged clocks are skipped" true
    (s.Sync_timeline.snapshot_hits > 0);
  let _, _, other = Trace.counts tr in
  Alcotest.(check bool) "sync+other events accounted" true
    (s.Sync_timeline.sync_events + s.Sync_timeline.other_events = other);
  let tr =
    Trace_gen.generate ~seed:3
      { Trace_gen.default with
        Trace_gen.threads = 64; length = 20_000; profile = Trace_gen.Mixed }
  in
  let tl = Sync_timeline.build tr in
  let s = Sync_timeline.stats tl in
  let n = Sync_timeline.thread_count tl in
  Alcotest.(check int) "64 threads" 64 n;
  if s.Sync_timeline.words >= s.Sync_timeline.checkpoints * n then
    Alcotest.failf "64 threads: %d words for %d checkpoints"
      s.Sync_timeline.words s.Sync_timeline.checkpoints

let suite =
  ( "timeline",
    [ Alcotest.test_case "oracle ≡ Vc_state on generated traces" `Quick
        test_generated;
      Alcotest.test_case "oracle ≡ Vc_state on every workload" `Quick
        test_workloads;
      Alcotest.test_case "held-lock stamps are canonical" `Quick
        test_stamps;
      Alcotest.test_case "cursor index regressions" `Quick
        test_regression;
      Alcotest.test_case "keyframe seeks ≡ Vc_state" `Quick test_keyframes;
      prop_keyframe_seeks;
      Alcotest.test_case "delta accounting" `Quick test_delta_accounting ] )
