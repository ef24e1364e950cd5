(* The async-finish task tier, end to end.

   - The three task workloads (treesum, taskpipe, daccount) carry
     their designed race inventories under every precise detector,
     stable across scheduling seeds.
   - The task-tier verdicts land as designed: the race-free workloads
     certify 100% of their accesses with [Task_local]/[Sp_ordered]
     (their skeletons have no edges at all — finish scopes own the
     ordering), daccount leaves exactly its seeded pair uncertified.
   - Program.make's two-tier validation names the offender.
   - The four task-structure lints fire on minimal programs.
   - Check elimination on the task family is a differential oracle:
     warnings and witnesses byte-identical with elimination on —
     sequentially, under both parallel plans, and through the sampling
     tier at rate 1.0.
   - A Fork inside a Finish escapes the scope: the forked thread stays
     statically parallel with post-finish code (soundness regression).
   - QCheck2: on random async-finish programs — with fork-tier spawns
     mixed in, including inside finish bodies — every certificate
     replays, and static series-ordering is sound against the dynamic
     happens-before oracle on every schedule seed — any dynamically
     concurrent access pair must be statically MHP. *)

let warning : Warning.t Alcotest.testable =
  Alcotest.testable Warning.pp (fun (a : Warning.t) b -> a = b)

let warnings_t = Alcotest.list warning

let witness : Witness.t Alcotest.testable =
  Alcotest.testable Witness.pp (fun (a : Witness.t) b -> a = b)

let witnesses_t = Alcotest.list witness

let run d tr = List.length (Driver.run d tr).Driver.warnings

(* ------------------------------------------------------------------ *)
(* workload race inventories                                          *)

let test_task_counts () =
  List.iter
    (fun (w : Workload.t) ->
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      (match Validity.check tr with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "%s: invalid trace: %s" w.name
          (Format.asprintf "%a" Validity.pp_violation v));
      let ft = run (module Fasttrack) tr in
      Alcotest.(check int) (w.name ^ ": fasttrack races") w.expected_races ft;
      Alcotest.(check int) (w.name ^ ": djit+ agrees") ft
        (run (module Djit_plus) tr);
      Alcotest.(check int) (w.name ^ ": basicvc agrees") ft
        (run (module Basic_vc) tr);
      Alcotest.(check int) (w.name ^ ": goldilocks agrees") ft
        (run (module Goldilocks) tr))
    Workloads.tasks

let test_task_seed_stability () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun seed ->
          let tr = Workload.trace ~seed ~scale:1 w in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d: fasttrack" w.name seed)
            w.expected_races
            (run (module Fasttrack) tr))
        [ 3; 7; 23 ])
    Workloads.tasks

(* ------------------------------------------------------------------ *)
(* verdict shapes                                                     *)

let summary_of (w : Workload.t) = Static.analyze (w.program ~scale:1)

let count_verdict s name =
  List.length
    (List.filter
       (fun (e : Static.entry) ->
         String.equal (Static.verdict_name e.Static.e_verdict) name)
       s.Static.entries)

let test_task_verdicts () =
  List.iter
    (fun (w : Workload.t) ->
      let s = summary_of w in
      (match s.Static.sp with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: no DPST on a task workload" w.name);
      (* the task family has no fork/join/barrier edges at all: every
         certificate is the task tier's *)
      Alcotest.(check int)
        (w.name ^ ": skeleton edge count")
        0
        (List.length s.Static.skeleton.Static.sk_edges);
      Alcotest.(check int)
        (w.name ^ ": may-race variables")
        w.expected_races
        (count_verdict s "may_race"))
    Workloads.tasks;
  let treesum = summary_of Wl_tasks.treesum in
  Alcotest.(check bool) "treesum: 100% certified" true
    (Static.elimination_ratio treesum = 1.0);
  Alcotest.(check bool) "treesum: task-local verdicts present" true
    (count_verdict treesum "task_local" > 0);
  Alcotest.(check bool) "treesum: sp-ordered verdicts present" true
    (count_verdict treesum "sp_ordered" > 0);
  let taskpipe = summary_of Wl_tasks.taskpipe in
  Alcotest.(check bool) "taskpipe: 100% certified" true
    (Static.elimination_ratio taskpipe = 1.0);
  (* non-task programs must not grow a DPST: the tier is opt-in *)
  List.iter
    (fun (w : Workload.t) ->
      match (summary_of w).Static.sp with
      | None -> ()
      | Some _ -> Alcotest.failf "%s: unexpected DPST" w.name)
    Workloads.table1

(* Sp_ordered certificates take the epoch shape under the DPST's series
   order: every one replays, and breaking the shape — two consecutive
   writes swapped, a write left out, a read placed after the last write
   though a write follows it — fails replay. *)
let test_sp_certificate_mutations () =
  (* writes in both phases of thread 0 and in task 1, a read in task 2 *)
  let x = Var.make ~obj:920 ~field:0 in
  let phased =
    Program.make
      [ { Program.tid = 0;
          body =
            [ Program.Write x; Program.Finish [ Program.Async 1 ];
              Program.Write x; Program.Finish [ Program.Async 2 ];
              Program.Write x ] };
        { Program.tid = 1; body = [ Program.Read x; Program.Write x ] };
        { Program.tid = 2; body = [ Program.Read x ] } ]
  in
  let found =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (e : Static.entry) ->
            match e.Static.e_cert with
            | Some (Static.Cert_sp_ordered o) -> Some (s, e, o)
            | _ -> None)
          s.Static.entries)
      (Static.analyze phased :: List.map summary_of Workloads.tasks)
  in
  let replays s (e : Static.entry) o =
    Result.is_ok
      (Static.check_certificate s
         { e with Static.e_cert = Some (Static.Cert_sp_ordered o) })
  in
  List.iter
    (fun (s, e, o) ->
      if not (replays s e o) then
        Alcotest.failf "%s: sp certificate rejected" (Var.to_string e.Static.e_var))
    found;
  let s, e, o =
    match
      List.find_opt (fun (_, _, o) -> Array.length o.Static.o_writes >= 2) found
    with
    | Some f -> f
    | None -> Alcotest.fail "no sp certificate with two writes"
  in
  let ws = Array.copy o.Static.o_writes in
  let w0 = ws.(0) in
  ws.(0) <- ws.(1);
  ws.(1) <- w0;
  Alcotest.(check bool) "swapped writes rejected" false
    (replays s e { o with Static.o_writes = ws });
  let m = Array.length o.Static.o_writes in
  Alcotest.(check bool) "missing write rejected" false
    (replays s e
       { o with
         Static.o_writes = Array.sub o.Static.o_writes 1 (m - 1);
         o_steps = Array.sub o.Static.o_steps 1 (m - 2) });
  match
    List.find_map
      (fun (s, e, o) ->
        let m = Array.length o.Static.o_writes in
        Array.find_opt (fun (k : Static.link) -> k.Static.k_after + 1 < m) o.Static.o_reads
        |> Option.map (fun k -> (s, e, o, k)))
      found
  with
  | None -> Alcotest.fail "no sp certificate with a read before a write"
  | Some (s, e, o, k) ->
    let m = Array.length o.Static.o_writes in
    let o_reads =
      Array.map
        (fun (x : Static.link) -> if x == k then { x with Static.k_after = m - 1 } else x)
        o.Static.o_reads
    in
    Alcotest.(check bool) "read moved past its next write rejected" false
      (replays s e { o with Static.o_reads })

(* ------------------------------------------------------------------ *)
(* O(1) MHP queries                                                   *)

let node t s = { Static.n_tid = t; n_seg = s }

let test_mhp_queries () =
  let s = summary_of Wl_tasks.daccount in
  (* the two seeded racy leaves sit in different subtrees: parallel *)
  Alcotest.(check bool) "leaves 4/7 parallel" true
    (Static.mhp s (node 4 0) (node 7 0));
  Alcotest.(check bool) "mhp is symmetric" true
    (Static.mhp s (node 7 0) (node 4 0));
  (* a leaf is ordered before its parent's post-finish segment *)
  Alcotest.(check bool) "leaf before parent post-finish" false
    (Static.mhp s (node 4 0) (node 2 1));
  (* main's prologue precedes everything; its post-finish epilogue
     follows everything *)
  Alcotest.(check bool) "main epilogue after leaves" false
    (Static.mhp s (node 0 1) (node 7 0));
  (* same-thread points never run in parallel *)
  Alcotest.(check bool) "same thread ordered" false
    (Static.mhp s (node 4 0) (node 4 0));
  (* siblings under one finish are parallel *)
  Alcotest.(check bool) "sibling leaves parallel" true
    (Static.mhp s (node 4 0) (node 5 0));
  (* programs without a task tier answer conservatively *)
  let s0 =
    Static.analyze
      (Program.make
         [ { Program.tid = 0;
             body = [ Program.Fork 1; Program.Join 1 ] };
           { Program.tid = 1;
             body = [ Program.Read (Var.make ~obj:1 ~field:0) ] } ])
  in
  Alcotest.(check bool) "no task tier: conservative true" true
    (Static.mhp s0 (node 0 0) (node 1 0))

(* ------------------------------------------------------------------ *)
(* Program.make names the offender                                    *)

let x0 = Var.make ~obj:910 ~field:0

let test_make_validation () =
  let expect_invalid name msg thunk =
    match thunk () with
    | (_ : Program.t) -> Alcotest.failf "%s: Program.make accepted it" name
    | exception Invalid_argument m ->
      Alcotest.(check string) name msg m
  in
  expect_invalid "duplicate tid"
    "Program.make: duplicate thread id 1" (fun () ->
      Program.make
        [ { Program.tid = 0; body = [] };
          { Program.tid = 1; body = [] };
          { Program.tid = 1; body = [] } ]);
  expect_invalid "async of unknown"
    "Program.make: async of unknown thread 5" (fun () ->
      Program.make [ { Program.tid = 0; body = [ Program.Async 5 ] } ]);
  expect_invalid "fork of unknown"
    "Program.make: fork of unknown thread 9" (fun () ->
      Program.make [ { Program.tid = 0; body = [ Program.Fork 9 ] } ]);
  expect_invalid "self-async"
    "Program.make: thread 0 asyncs itself" (fun () ->
      Program.make [ { Program.tid = 0; body = [ Program.Async 0 ] } ]);
  expect_invalid "two-tier spawn"
    "Program.make: thread 1 is both forked and asynced (a thread \
     belongs to exactly one spawn tier)" (fun () ->
      Program.make
        [ { Program.tid = 0;
            body = [ Program.Fork 1; Program.Finish [ Program.Async 1 ] ] };
          { Program.tid = 1; body = [ Program.Read x0 ] } ]);
  expect_invalid "bad barrier parties"
    "Program.make: barrier 0 needs at least 2 parties (has 1)" (fun () ->
      Program.make
        ~barriers:[ { Program.id = 0; parties = 1 } ]
        [ { Program.tid = 0; body = [] } ])

(* ------------------------------------------------------------------ *)
(* task-structure lints                                               *)

let kinds_of (s : Static.summary) =
  List.map (fun (f : Static.finding) -> f.Static.f_kind) s.Static.findings

let test_task_lints () =
  let check name program expected =
    let s = Static.analyze program in
    if not (List.mem expected (kinds_of s)) then
      Alcotest.failf "%s: expected finding missing (got %d finding(s))"
        name
        (List.length s.Static.findings)
  in
  check "async escapes finish"
    (Program.make
       [ { Program.tid = 0; body = [ Program.Async 1 ] };
         { Program.tid = 1; body = [ Program.Read x0 ] } ])
    (Static.Async_escapes_finish 1);
  (* the escaped-async taint is transitive: a task spawned inside a
     finish by an escaped task escapes too *)
  check "escape is transitive"
    (Program.make
       [ { Program.tid = 0; body = [ Program.Async 1 ] };
         { Program.tid = 1; body = [ Program.Async 2 ] };
         { Program.tid = 2; body = [ Program.Read x0 ] } ])
    (Static.Async_escapes_finish 2);
  check "finish never closed"
    (Program.make
       [ { Program.tid = 0;
           body = [ Program.Finish [ Program.Async 1 ] ] };
         { Program.tid = 1; body = [ Program.Join 0 ] } ])
    (Static.Finish_never_closed { owner = 0; task = 1 });
  check "join of task"
    (Program.make
       [ { Program.tid = 0;
           body = [ Program.Finish [ Program.Async 1 ]; Program.Join 1 ] };
         { Program.tid = 1; body = [ Program.Read x0 ] } ])
    (Static.Join_of_task 1);
  let fanout = Static.fanout_limit + 1 in
  check "unbounded task fanout"
    (Program.make
       ({ Program.tid = 0;
          body =
            [ Program.Finish
                (List.init fanout (fun i -> Program.Async (i + 1))) ] }
       :: List.init fanout (fun i ->
              { Program.tid = i + 1; body = [ Program.Read x0 ] })))
    (Static.Unbounded_task_fanout
       { tid = 0; count = fanout; limit = Static.fanout_limit });
  (* the shipped task workloads lint clean *)
  List.iter
    (fun (w : Workload.t) ->
      match (summary_of w).Static.findings with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "%s: unexpected lint finding: %s" w.name
          (Format.asprintf "%a" Static.pp_finding f))
    Workloads.tasks

(* ------------------------------------------------------------------ *)
(* fork-tier escape from finish scopes                                *)

(* A Fork inside a Finish is legal, but the finish close joins only
   Async-registered tasks — the forked thread runs past the close and
   races with post-finish code.  The DPST must place it parallel with
   everything outside its spawn point (regression for an unsound
   Sp_ordered certificate that let --static-elim drop a real race). *)
let test_fork_escapes_finish () =
  let program =
    Program.make
      [ { Program.tid = 0;
          body = [ Program.Finish [ Program.Fork 1 ]; Program.Write x0 ] };
        { Program.tid = 1; body = [ Program.Write x0 ] } ]
  in
  let s = Static.analyze program in
  Alcotest.(check bool) "forked thread parallel with post-finish write" true
    (Static.mhp s (node 1 0) (node 0 3));
  Alcotest.(check int) "racy variable stays may-race" 1
    (count_verdict s "may_race");
  let skip = Static.eliminator ~granularity:Var.Fine s in
  let elim_config = Config.with_static_elim skip Config.default in
  List.iter
    (fun seed ->
      let tr =
        Scheduler.run ~options:{ Scheduler.default_options with seed } program
      in
      let base = Driver.run (module Fasttrack) tr in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: the race is real" seed)
        true
        (base.Driver.warnings <> []);
      let elim = Driver.run ~config:elim_config (module Fasttrack) tr in
      Alcotest.check warnings_t
        (Printf.sprintf "seed %d: warnings survive elimination" seed)
        base.Driver.warnings elim.Driver.warnings)
    [ 1; 5; 9 ];
  (* a fork with no finish open above keeps the precise spawn-site
     placement: the spawner's prologue stays series-ordered before it *)
  let s2 =
    Static.analyze
      (Program.make
         [ { Program.tid = 0;
             body =
               [ Program.Write x0;
                 Program.Fork 1;
                 Program.Finish [ Program.Async 2 ] ] };
           { Program.tid = 1; body = [ Program.Read x0 ] };
           { Program.tid = 2; body = [] } ])
  in
  Alcotest.(check bool) "pre-fork write ordered before forked read" false
    (Static.mhp s2 (node 0 0) (node 1 0))

(* The root-escape fallback builds spawners before their once-spawned
   targets: here thread 1 precedes its unique spawner 2 in the thread
   list, and 2 itself is fork-ambiguous (spawned twice), yet 1 must
   still nest under 2's spawn site rather than detach under the root. *)
let test_fallback_spawner_order () =
  let program =
    Program.make
      [ { Program.tid = 0; body = [ Program.Fork 2; Program.Fork 2 ] };
        { Program.tid = 1; body = [ Program.Read x0 ] };
        { Program.tid = 2; body = [ Program.Write x0; Program.Async 1 ] } ]
  in
  let s = Static.analyze program in
  Alcotest.(check bool) "spawner prologue ordered before its task" false
    (Static.mhp s (node 2 0) (node 1 0))

(* ------------------------------------------------------------------ *)
(* elimination differential across drivers and the sampling tier      *)

let full_rate_sampling = { Config.rate = 1.0; budget = 8; seed = 1 }

let test_task_elimination_differential () =
  List.iter
    (fun (w : Workload.t) ->
      let summary = summary_of w in
      let skip = Static.eliminator ~granularity:Var.Fine summary in
      let elim_config = Config.with_static_elim skip Config.default in
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      let base = Driver.run (module Fasttrack) tr in
      (* a nonzero certified fraction is the tier's acceptance bar *)
      if Static.elimination_ratio summary <= 0. then
        Alcotest.failf "%s: nothing certified" w.name;
      let elim = Driver.run ~config:elim_config (module Fasttrack) tr in
      Alcotest.check warnings_t (w.name ^ ": seq warnings")
        base.Driver.warnings elim.Driver.warnings;
      Alcotest.check witnesses_t (w.name ^ ": seq witnesses")
        base.Driver.witnesses elim.Driver.witnesses;
      Alcotest.(check bool)
        (w.name ^ ": accesses actually eliminated")
        true
        (elim.Driver.stats.Stats.eliminated > 0);
      List.iter
        (fun plan ->
          let par =
            Driver.run_parallel ~config:elim_config ~jobs:3 ~plan
              (module Fasttrack) tr
          in
          let pname =
            Printf.sprintf "%s [%s]" w.name (Shard.kind_to_string plan)
          in
          Alcotest.check warnings_t (pname ^ ": warnings")
            base.Driver.warnings par.Driver.warnings;
          Alcotest.check witnesses_t (pname ^ ": witnesses")
            base.Driver.witnesses par.Driver.witnesses)
        [ Shard.Static; Shard.Stealing ];
      (* the sampling tier at rate 1.0 composes with elimination *)
      let sampled =
        Driver.run
          ~config:(Config.with_sampling full_rate_sampling elim_config)
          (module Sampling_ft) tr
      in
      Alcotest.check warnings_t
        (w.name ^ ": sampling rate 1.0 warnings")
        base.Driver.warnings sampled.Driver.warnings;
      Alcotest.check witnesses_t
        (w.name ^ ": sampling rate 1.0 witnesses")
        base.Driver.witnesses sampled.Driver.witnesses)
    Workloads.tasks

(* ------------------------------------------------------------------ *)
(* random async-finish programs                                       *)

(* A random spawn tree: thread [k] (1-based) is spawned by a uniformly
   chosen earlier thread — usually through [Async], sometimes through
   [Fork], so the property covers tier mixing (in particular a Fork
   inside a Finish body, which must escape the scope).  Each spawner
   wraps its child spawns in one finish scope, per-child finish
   scopes, or — deliberately — none (escaped asyncs are legal
   programs with maximal parallelism; the linter flags them but the
   MHP answers must still be sound).  Thread bodies interleave
   accesses to a small shared pool before, between and after the
   spawns. *)
let gen_task_program_and_seed =
  QCheck2.Gen.(
    let* ntasks = int_range 1 6 in
    let* nvars = int_range 1 5 in
    let var i = Var.make ~obj:(700 + i) ~field:0 in
    let* parents =
      flatten_l (List.init ntasks (fun i -> int_range 0 i))
    in
    let parents = Array.of_list parents in
    (* per-target spawn tier; ensure at least one Async so the program
       stays inside the task tier (a DPST is built) even when every
       coin lands on Fork *)
    let* tiers = list_repeat ntasks (frequencyl [ (3, true); (1, false) ]) in
    let tiers = Array.of_list tiers in
    tiers.(0) <- true;
    (* children t = tasks k with parents.(k-1) = t, ascending *)
    let children t =
      List.filter_map
        (fun k -> if parents.(k - 1) = t then Some k else None)
        (List.init ntasks (fun i -> i + 1))
    in
    let block =
      let* v = int_range 0 (nvars - 1) in
      let* nr = int_range 0 2 in
      let* nw = int_range 0 2 in
      return (Program.reads (var v) nr @ Program.writes (var v) nw)
    in
    let* styles = list_repeat (ntasks + 1) (int_range 0 2) in
    let styles = Array.of_list styles in
    let* pre = list_repeat (ntasks + 1) block in
    let* mid = list_repeat (ntasks + 1) block in
    let* post = list_repeat (ntasks + 1) block in
    let pre = Array.of_list pre
    and mid = Array.of_list mid
    and post = Array.of_list post in
    let body t =
      let spawns =
        List.map
          (fun k ->
            if tiers.(k - 1) then Program.Async k else Program.Fork k)
          (children t)
      in
      let spawn =
        match (spawns, styles.(t)) with
        | [], _ -> []
        | _, 0 -> [ Program.Finish (spawns @ mid.(t)) ]
        | _, 1 -> spawns @ mid.(t)
        | _, _ ->
          List.map (fun s -> Program.Finish [ s ]) spawns @ mid.(t)
      in
      pre.(t) @ spawn @ post.(t)
    in
    let program =
      Program.make
        (List.init (ntasks + 1) (fun t -> { Program.tid = t; body = body t }))
    in
    let* seed = int_range 1 1_000_000 in
    return (program, seed))

(* Map each access event of a trace to its static (tid, segment) node
   via per-thread access ordinals — the Static.access_segments
   bridge. *)
let nodes_of_trace program tr =
  let segs = Static.access_segments program in
  let ord = Hashtbl.create 8 in
  let nodes = Array.make (Trace.length tr) None in
  Trace.iteri
    (fun i e ->
      if Event.is_access e then
        match Event.tid e with
        | None -> ()
        | Some t ->
          let k = Option.value (Hashtbl.find_opt ord t) ~default:0 in
          Hashtbl.replace ord t (k + 1);
          (match List.assoc_opt t segs with
          | Some arr when k < Array.length arr ->
            nodes.(i) <- Some { Static.n_tid = t; n_seg = arr.(k) }
          | _ ->
            QCheck2.Test.fail_reportf
              "access_segments misses access %d of thread %d" k t))
    tr;
  nodes

let prop_task_program (program, seed) =
  let summary = Static.analyze program in
  (* (a) every certificate replays through the independent checker *)
  List.iter
    (fun (e : Static.entry) ->
      match e.Static.e_cert with
      | None -> ()
      | Some _ -> (
        match Static.check_certificate summary e with
        | Ok () -> ()
        | Error msg ->
          QCheck2.Test.fail_reportf "certificate rejected on %s: %s"
            (Var.to_string e.Static.e_var)
            msg))
    summary.Static.entries;
  let skip = Static.eliminator ~granularity:Var.Fine summary in
  let elim_config = Config.with_static_elim skip Config.default in
  List.iter
    (fun seed ->
      let tr =
        Scheduler.run
          ~options:{ Scheduler.default_options with seed }
          program
      in
      (* (b) static MHP ⊆ dynamic HB: any pair of accesses the trace
         leaves unordered must be statically parallel — equivalently, a
         static series-order claim is never contradicted by a run *)
      let nodes = nodes_of_trace program tr in
      let n = Array.length nodes in
      for i = 0 to n - 1 do
        match nodes.(i) with
        | None -> ()
        | Some a ->
          for j = i + 1 to n - 1 do
            match nodes.(j) with
            | Some b when not (Tid.equal a.Static.n_tid b.Static.n_tid) ->
              if
                (not (Happens_before.ordered tr i j))
                && not (Static.mhp summary a b)
              then
                QCheck2.Test.fail_reportf
                  "t%d/s%d and t%d/s%d statically series-ordered but \
                   dynamically concurrent (events %d, %d; seed %d)"
                  a.Static.n_tid a.Static.n_seg b.Static.n_tid
                  b.Static.n_seg i j seed
            | _ -> ()
          done
      done;
      (* (c) elimination differential, plus certified-never-warned *)
      let base = Driver.run (module Fasttrack) tr in
      let elim = Driver.run ~config:elim_config (module Fasttrack) tr in
      if base.Driver.warnings <> elim.Driver.warnings then
        QCheck2.Test.fail_reportf "warnings differ under static elimination";
      if base.Driver.witnesses <> elim.Driver.witnesses then
        QCheck2.Test.fail_reportf "witnesses differ under static elimination";
      List.iter
        (fun plan ->
          let par =
            Driver.run_parallel ~config:elim_config ~jobs:3 ~plan
              (module Fasttrack) tr
          in
          if base.Driver.warnings <> par.Driver.warnings then
            QCheck2.Test.fail_reportf "parallel warnings differ under elim")
        [ Shard.Static; Shard.Stealing ];
      let sampled =
        Driver.run
          ~config:(Config.with_sampling full_rate_sampling elim_config)
          (module Sampling_ft) tr
      in
      if base.Driver.warnings <> sampled.Driver.warnings then
        QCheck2.Test.fail_reportf
          "sampling rate 1.0 warnings differ under elim";
      List.iter
        (fun (warn : Warning.t) ->
          if Static.certified summary warn.Warning.x then
            QCheck2.Test.fail_reportf "warning on certified variable %s"
              (Var.to_string warn.Warning.x))
        base.Driver.warnings)
    [ 3; 17; seed ];
  true

let qtest_task_programs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:"random async-finish programs: MHP sound vs HB oracle, \
              certificates replay, elimination sound"
       gen_task_program_and_seed prop_task_program)

let suite =
  ( "tasks",
    [ Alcotest.test_case "task workload precise counts" `Quick
        test_task_counts;
      Alcotest.test_case "task seed stability" `Quick
        test_task_seed_stability;
      Alcotest.test_case "task-tier verdict shapes" `Quick
        test_task_verdicts;
      Alcotest.test_case "sp certificates: epoch shape, mutations fail"
        `Quick test_sp_certificate_mutations;
      Alcotest.test_case "O(1) MHP queries" `Quick test_mhp_queries;
      Alcotest.test_case "Program.make names the offender" `Quick
        test_make_validation;
      Alcotest.test_case "task-structure lints" `Quick test_task_lints;
      Alcotest.test_case "fork escapes finish scopes" `Quick
        test_fork_escapes_finish;
      Alcotest.test_case "fallback builds spawners first" `Quick
        test_fallback_spawner_order;
      Alcotest.test_case
        "task elimination differential (seq, plans, sampling)" `Slow
        test_task_elimination_differential;
      qtest_task_programs ] )
