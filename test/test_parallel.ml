(* The parallel driver's contract (Driver.run_parallel): for any
   detector whose per-variable analysis depends only on the
   synchronization-event prefix, the variable-sharded run is
   warning-for-warning identical to the sequential run — same
   variables, kinds, trace indices and prior epochs — and its merged
   stats are the sum of the per-shard counters.  This suite checks
   both halves on every built-in workload at jobs ∈ {1, 3, 8}, on a
   dedicated barrier + fork/join + volatile workload that exercises
   the sync-broadcast path, and under every shadow granularity. *)

let warning : Warning.t Alcotest.testable =
  Alcotest.testable Warning.pp (fun (a : Warning.t) b -> a = b)

let warnings_t = Alcotest.list warning

let witness : Witness.t Alcotest.testable =
  Alcotest.testable Witness.pp (fun (a : Witness.t) b -> a = b)

let witnesses_t = Alcotest.list witness

let jobs_list = [ 1; 3; 8 ]

(* Both parallel plans must agree with the sequential run; only the
   events accounting differs.  Static broadcasts every sync event to
   all [jobs] shards ([jobs * other] replays); Stealing replays the
   sync prefix exactly once into the shared timeline, so merged
   events equal the trace length. *)
let check_plan ?config name d tr ~seq ~jobs plan =
  let par = Driver.run_parallel ?config ~jobs ~plan d tr in
  let name =
    Printf.sprintf "%s [%s]" name (Shard.kind_to_string plan)
  in
  Alcotest.check
    (Alcotest.testable
       (fun ppf k -> Format.pp_print_string ppf (Shard.kind_to_string k))
       ( = ))
    (Printf.sprintf "%s: plan honoured, %d jobs" name jobs)
    plan par.Driver.plan_kind;
  Alcotest.check warnings_t
    (Printf.sprintf "%s: warnings, %d jobs" name jobs)
    seq.Driver.warnings par.Driver.warnings;
  Alcotest.check witnesses_t
    (Printf.sprintf "%s: witnesses, %d jobs" name jobs)
    seq.Driver.witnesses par.Driver.witnesses;
  (* summed stats: accesses are partitioned (each counted once across
     all shards / items) under both plans *)
  let reads, writes, _ = Trace.counts tr in
  let other = Trace.length tr - reads - writes in
  let s = par.Driver.stats in
  Alcotest.(check int)
    (Printf.sprintf "%s: summed reads, %d jobs" name jobs)
    reads s.Stats.reads;
  Alcotest.(check int)
    (Printf.sprintf "%s: summed writes, %d jobs" name jobs)
    writes s.Stats.writes;
  Alcotest.(check int)
    (Printf.sprintf "%s: summed events, %d jobs" name jobs)
    (match plan with
    | Shard.Static -> reads + writes + (jobs * other)
    | Shard.Stealing -> Trace.length tr)
    s.Stats.events;
  (* access-path rule counters are access-driven, so their shard sum
     must equal the sequential count exactly under either plan *)
  List.iter
    (fun rule ->
      Alcotest.(check int)
        (Printf.sprintf "%s: rule %S, %d jobs" name rule jobs)
        (Stats.rule_hits seq.Driver.stats rule)
        (Stats.rule_hits s rule))
    [ "READ SAME EPOCH"; "READ SHARED"; "READ EXCLUSIVE";
      "READ SHARE"; "WRITE SAME EPOCH"; "WRITE EXCLUSIVE";
      "WRITE SHARED" ]

let check_equivalence ?config name (d : (module Detector.S)) tr =
  let module D = (val d) in
  let seq = Driver.run ?config d tr in
  let plans =
    if D.shares_clocks then [ Shard.Static; Shard.Stealing ]
    else [ Shard.Static ]
  in
  List.iter
    (fun jobs ->
      List.iter (check_plan ?config name d tr ~seq ~jobs) plans)
    jobs_list

let test_all_workloads () =
  List.iter
    (fun (w : Workload.t) ->
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      check_equivalence w.name (module Fasttrack) tr)
    Workloads.all

(* A workload purpose-built to stress the sync-broadcast path: barrier
   phases, fork/join ordering, volatile handoff, and one real race. *)
let broadcast_heavy_trace () =
  let a = Patterns.alloc () in
  let slices = Array.init 3 (fun _ -> Patterns.obj a ~fields:4) in
  let shared = Patterns.obj a ~fields:4 in
  let racy = Patterns.var a in
  let v = Patterns.volatile a in
  let b = Patterns.barrier_id a in
  let workers = [ 1; 2; 3 ] in
  let phase i p =
    (* write own slice, barrier, read the neighbour's — race-free
       only because of the broadcast barrier_rel edge *)
    Patterns.work ~reads:2 ~writes:2 slices.(i)
    @ [ Program.Barrier_wait b ]
    @ Patterns.read_only ~reads:2 slices.((i + p) mod 3)
  in
  let worker i tid =
    { Program.tid;
      body =
        [ Program.Volatile_read v ]
        @ List.concat (List.init 2 (phase i))
        @ (if i < 2 then [ Program.Write racy ] else []) }
  in
  let main =
    { Program.tid = 0;
      body =
        Patterns.work ~reads:1 ~writes:1 shared
        @ [ Program.Volatile_write v ]
        @ List.map (fun t -> Program.Fork t) workers
        @ List.map (fun t -> Program.Join t) workers
        @ Patterns.read_only ~reads:2 shared }
  in
  let program =
    Program.make
      ~barriers:[ { Program.id = b; parties = 3 } ]
      (main :: List.mapi (fun i t -> worker i t) workers)
  in
  Scheduler.run
    ~options:{ Scheduler.default_options with seed = 11 }
    program

let test_broadcast_sync () =
  let tr = broadcast_heavy_trace () in
  (match Validity.check tr with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "invalid trace: %s"
      (Format.asprintf "%a" Validity.pp_violation v));
  let seq = Driver.run (module Fasttrack) tr in
  Alcotest.(check int) "exactly the racy-variable warning" 1
    (List.length seq.Driver.warnings);
  check_equivalence "broadcast-heavy" (module Fasttrack) tr

(* The driver is detector-generic: the baselines' per-variable states
   (locksets, VC pairs, lockset-transfer logs) also depend only on
   the sync prefix, so they shard identically. *)
let test_other_detectors () =
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      List.iter
        (fun (tool, d) -> check_equivalence (name ^ "/" ^ tool) d tr)
        [ ("djit+", (module Djit_plus : Detector.S));
          ("basicvc", (module Basic_vc));
          ("eraser", (module Eraser)) ])
    [ "hedc"; "tsp" ]

(* Sharding is by object id precisely so that the coarse and adaptive
   granularities — which share shadow state between the fields of an
   object — see every key's full access stream on one shard. *)
let test_granularities () =
  let w = Option.get (Workloads.find "moldyn") in
  let tr = Workload.trace ~seed:11 ~scale:1 w in
  List.iter
    (fun g ->
      let config = { Config.default with granularity = g } in
      check_equivalence
        (Printf.sprintf "moldyn (%s)"
           (match g with
           | Shadow.Fine -> "fine"
           | Shadow.Coarse -> "coarse"
           | Shadow.Adaptive -> "adaptive"))
        ~config (module Fasttrack) tr)
    [ Shadow.Fine; Shadow.Coarse; Shadow.Adaptive ]

(* Shard planning invariants: accesses partitioned, sync broadcast,
   per-shard order = trace order, original indices preserved. *)
let test_shard_plan () =
  let tr = broadcast_heavy_trace () in
  let jobs = 3 in
  let plan = Shard.plan ~jobs tr in
  Alcotest.(check int) "shard count" jobs (Array.length plan.Shard.shards);
  let reads, writes, other = Trace.counts tr in
  ignore other;
  let owned =
    Array.fold_left
      (fun acc (s : Shard.t) -> acc + s.Shard.accesses)
      0 plan.Shard.shards
  in
  Alcotest.(check int) "accesses partitioned" (reads + writes) owned;
  Array.iter
    (fun (s : Shard.t) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d length" s.Shard.shard_id)
        (s.Shard.accesses + plan.Shard.broadcast)
        (Shard.length s);
      let last = ref (-1) in
      Shard.iteri
        (fun index e ->
          if index <= !last then
            Alcotest.failf "shard %d: indices not increasing" s.shard_id;
          last := index;
          if not (Event.equal e (Trace.get tr index)) then
            Alcotest.failf "shard %d: event/index mismatch at %d"
              s.shard_id index;
          (match e with
          | Event.Read { x; _ } | Event.Write { x; _ } ->
            Alcotest.(check int)
              "access routed to its owner shard"
              (Shard.shard_of_var ~jobs x)
              s.shard_id
          | _ -> ()))
        s)
    plan.Shard.shards

(* Work-stealing plan invariants: access-only items, accesses
   partitioned across [factor x jobs] slots by [obj mod slots],
   LPT order (descending owned-access counts), indices increasing. *)
let test_stealing_plan () =
  let tr = broadcast_heavy_trace () in
  let jobs = 3 in
  let plan = Shard.plan_stealing ~jobs tr in
  Alcotest.(check int) "slots = factor x jobs"
    (Shard.default_steal_factor * jobs)
    plan.Shard.slots;
  Alcotest.(check int) "items materialized" plan.Shard.slots
    (Array.length plan.Shard.shards);
  let reads, writes, other = Trace.counts tr in
  Alcotest.(check int) "sync events counted once" other
    plan.Shard.broadcast;
  let owned =
    Array.fold_left
      (fun acc (s : Shard.t) -> acc + s.Shard.accesses)
      0 plan.Shard.shards
  in
  Alcotest.(check int) "accesses partitioned" (reads + writes) owned;
  (* LPT: descending access counts *)
  Array.iteri
    (fun i (s : Shard.t) ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "LPT order at item %d" i)
          true
          (plan.Shard.shards.(i - 1).Shard.accesses >= s.Shard.accesses))
    plan.Shard.shards;
  Array.iter
    (fun (s : Shard.t) ->
      Alcotest.(check int)
        (Printf.sprintf "item %d: access events only" s.Shard.shard_id)
        s.Shard.accesses (Shard.length s);
      let last = ref (-1) in
      Shard.iteri
        (fun index e ->
          if index <= !last then
            Alcotest.failf "item %d: indices not increasing" s.shard_id;
          last := index;
          if not (Event.equal e (Trace.get tr index)) then
            Alcotest.failf "item %d: event/index mismatch at %d"
              s.shard_id index;
          match e with
          | Event.Read { x; _ } | Event.Write { x; _ } ->
            Alcotest.(check int) "access routed by obj mod slots"
              (Shard.shard_of_var ~jobs:plan.Shard.slots x)
              s.Shard.shard_id
          | _ -> Alcotest.failf "item %d: non-access event" s.shard_id)
        s)
    plan.Shard.shards

(* Adversarial hot object: one variable absorbs > 90% of all accesses.
   Under the static plan this strands nearly everything on one shard;
   work stealing confines it to one item (pinning at most one worker)
   while the other items drain dynamically — and the merged output
   must still be byte-identical to sequential. *)
let hot_object_trace () =
  let a = Patterns.alloc () in
  let hot = Patterns.var a in
  let cold = Array.init 6 (fun _ -> Patterns.var a) in
  let m = Patterns.lock a in
  let worker i tid =
    { Program.tid;
      body =
        List.concat
          (List.init 40 (fun k ->
               [ Program.Acquire m; Program.Write hot;
                 Program.Read hot; Program.Release m ]
               @ (if k mod 8 = i then [ Program.Read cold.(i) ] else [])))
        @ (if i = 0 then [ Program.Write cold.(5) ]
           else if i = 1 then [ Program.Read cold.(5) ]
           else []) }
  in
  let program =
    Program.make
      ({ Program.tid = 0;
         body =
           [ Program.Fork 1; Program.Fork 2; Program.Fork 3 ]
           @ List.init 4 (fun i -> Program.Write cold.(i))
           @ [ Program.Join 1; Program.Join 2; Program.Join 3 ] }
      :: List.init 3 (fun i -> worker i (i + 1)))
  in
  Scheduler.run
    ~options:{ Scheduler.default_options with seed = 7 }
    program

let test_hot_object () =
  let tr = hot_object_trace () in
  (match Validity.check tr with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "invalid trace: %s"
      (Format.asprintf "%a" Validity.pp_violation v));
  let reads, writes, _ = Trace.counts tr in
  let jobs = 3 in
  let plan = Shard.plan_stealing ~jobs tr in
  Alcotest.(check bool) "one item owns > 90% of accesses" true
    (float_of_int plan.Shard.shards.(0).Shard.accesses
     > 0.9 *. float_of_int (reads + writes));
  check_equivalence "hot-object" (module Fasttrack) tr;
  check_equivalence "hot-object/eraser" (module Eraser) tr

(* More shards than objects / than events: empty shards are legal. *)
let test_degenerate_jobs () =
  let a = Patterns.alloc () in
  let x = Patterns.var a in
  let program =
    Program.make
      [ { Program.tid = 0;
          body = [ Program.Fork 1; Program.Write x; Program.Join 1 ] };
        { Program.tid = 1; body = [ Program.Write x ] } ]
  in
  let tr =
    Scheduler.run
      ~options:{ Scheduler.default_options with seed = 3 }
      program
  in
  let seq = Driver.run (module Fasttrack) tr in
  List.iter
    (fun jobs ->
      let par = Driver.run_parallel ~jobs (module Fasttrack) tr in
      Alcotest.check warnings_t
        (Printf.sprintf "tiny trace, %d jobs" jobs)
        seq.Driver.warnings par.Driver.warnings)
    [ 1; 2; 7; 64 ]

(* Wide traces: with 128 threads every sync event's clock spans far
   more entries than it raises, which is what the timeline's delta
   checkpoints compress.  The stealing plan must still reproduce the
   sequential run byte for byte. *)
let test_wide_threads () =
  let tr =
    Trace_gen.generate ~seed:7
      { Trace_gen.threads = 128; vars = 64; locks = 8; volatiles = 2;
        length = 20_000; profile = Trace_gen.Synchronized; barriers = true }
  in
  Alcotest.(check int) "128 threads" 128 (Trace.thread_count tr);
  let seq = Driver.run (module Fasttrack) tr in
  Alcotest.(check bool) "the trace has races to witness" true
    (seq.Driver.warnings <> []);
  List.iter
    (fun jobs ->
      check_plan "128 threads" (module Fasttrack) tr ~seq ~jobs Shard.Stealing)
    [ 1; 2 ]

let suite =
  ( "parallel",
    [ Alcotest.test_case "seq ≡ par on every workload (jobs 1/3/8)" `Quick
        test_all_workloads;
      Alcotest.test_case "barrier + fork/join + volatile broadcast" `Quick
        test_broadcast_sync;
      Alcotest.test_case "other detectors shard identically" `Quick
        test_other_detectors;
      Alcotest.test_case "fine/coarse/adaptive granularities" `Quick
        test_granularities;
      Alcotest.test_case "shard plan invariants" `Quick test_shard_plan;
      Alcotest.test_case "stealing plan invariants" `Quick
        test_stealing_plan;
      Alcotest.test_case "adversarial hot object" `Quick test_hot_object;
      Alcotest.test_case "128 threads: stealing ≡ sequential" `Quick
        test_wide_threads;
      Alcotest.test_case "degenerate shard counts" `Quick
        test_degenerate_jobs ] )
