(* lib/static's contract, tested from three directions.

   (1) Certificates are machine-checkable: every certificate the
   analysis emits for every built-in workload (and for random DSL
   programs below) must replay through Static.check_certificate, and
   May_race entries must carry none.

   (2) Sound elimination is a differential oracle: running any
   per-shadow-key detector with Config.static_elim must leave the
   warning AND witness lists byte-identical to an unfiltered run —
   sequentially and under both parallel plans — because skipped
   accesses never touch the sync state other variables depend on.
   Dually, a certified variable can never appear in a precise
   detector's warnings for any scheduling seed (certificates quantify
   over all interleavings).

   (3) The prefilters (Filter.keep) must forward every
   synchronization event no matter what they drop: downstream
   checkers rebuild the happens-before order from the sync stream. *)

let warning : Warning.t Alcotest.testable =
  Alcotest.testable Warning.pp (fun (a : Warning.t) b -> a = b)

let warnings_t = Alcotest.list warning

let witness : Witness.t Alcotest.testable =
  Alcotest.testable Witness.pp (fun (a : Witness.t) b -> a = b)

let witnesses_t = Alcotest.list witness

let precise_detectors =
  [ ("FastTrack", (module Fasttrack : Detector.S));
    ("DJIT+", (module Djit_plus)); ("MultiRace", (module Multi_race)) ]

let summary_of (w : Workload.t) = Static.analyze (w.program ~scale:1)

(* ------------------------------------------------------------------ *)
(* certificates                                                       *)

let check_all_certificates name summary =
  List.iter
    (fun (e : Static.entry) ->
      match (e.e_verdict, e.e_cert) with
      | Static.May_race, None -> ()
      | Static.May_race, Some _ ->
        Alcotest.failf "%s/%s: may-race entry carries a certificate" name
          (Var.to_string e.e_var)
      | _, None ->
        Alcotest.failf "%s/%s: certified verdict without a certificate"
          name (Var.to_string e.e_var)
      | _, Some _ -> (
        match Static.check_certificate summary e with
        | Ok () -> ()
        | Error msg ->
          Alcotest.failf "%s/%s: certificate rejected: %s" name
            (Var.to_string e.e_var) msg))
    summary.Static.entries

let test_workload_certificates () =
  List.iter
    (fun (w : Workload.t) ->
      let summary = summary_of w in
      check_all_certificates w.name summary;
      (* accounting: certified_accesses is the certified entries' sum *)
      let certified_sum =
        List.fold_left
          (fun acc (e : Static.entry) ->
            if e.e_verdict <> Static.May_race then acc + e.e_accesses
            else acc)
          0 summary.Static.entries
      in
      Alcotest.(check int)
        (w.name ^ ": certified access accounting")
        certified_sum summary.Static.certified_accesses)
    Workloads.all

(* Barrier- and fork/join-structured workloads must certify most of
   their accesses — the whole point of the ahead-of-run pass. *)
let test_certified_fraction () =
  List.iter
    (fun name ->
      match Workloads.find name with
      | None -> Alcotest.failf "unknown workload %s" name
      | Some w ->
        let r = Static.elimination_ratio (summary_of w) in
        if r < 0.5 then
          Alcotest.failf "%s: only %.1f%% of accesses certified" name
            (100. *. r))
    [ "moldyn"; "sor"; "lufact"; "sparse"; "series"; "crypt";
      "montecarlo"; "raytracer" ]

(* ------------------------------------------------------------------ *)
(* soundness oracle                                                   *)

(* A certified variable cannot race under any interleaving, so no
   precise detector may warn on it — across scheduling seeds. *)
let test_certified_never_warned () =
  List.iter
    (fun (w : Workload.t) ->
      let summary = summary_of w in
      List.iter
        (fun seed ->
          let tr = Workload.trace ~seed ~scale:1 w in
          List.iter
            (fun (name, d) ->
              List.iter
                (fun (warn : Warning.t) ->
                  if Static.certified summary warn.Warning.x then
                    Alcotest.failf
                      "%s/%s (seed %d): warning on certified variable %s"
                      w.name name seed
                      (Var.to_string warn.Warning.x))
                (Driver.run d tr).Driver.warnings)
            precise_detectors)
        [ 7; 11; 23 ])
    Workloads.all

(* Dynamically racy variables must have been left uncertified (the
   May_race verdict is what keeps elimination sound). *)
let test_warned_vars_are_may_race () =
  List.iter
    (fun (w : Workload.t) ->
      let summary = summary_of w in
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      List.iter
        (fun (warn : Warning.t) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: verdict of warned %s" w.name
               (Var.to_string warn.Warning.x))
            "may_race"
            (Static.verdict_name
               (Static.verdict_of summary warn.Warning.x)))
        (Driver.run (module Fasttrack) tr).Driver.warnings)
    Workloads.all

(* The differential: static_elim on/off is warning- and
   witness-identical for per-shadow-key detectors, sequentially and
   under both parallel plans. *)
let check_differential ?(jobs = 3) name d tr ~elim_config =
  let base = Driver.run d tr in
  let elim = Driver.run ~config:elim_config d tr in
  Alcotest.check warnings_t (name ^ ": seq warnings") base.Driver.warnings
    elim.Driver.warnings;
  Alcotest.check witnesses_t (name ^ ": seq witnesses")
    base.Driver.witnesses elim.Driver.witnesses;
  (* every event is either seen by the detector or counted eliminated *)
  Alcotest.(check int)
    (name ^ ": events + eliminated")
    (Trace.length tr)
    (elim.Driver.stats.Stats.events + elim.Driver.stats.Stats.eliminated);
  List.iter
    (fun plan ->
      let par = Driver.run_parallel ~config:elim_config ~jobs ~plan d tr in
      let pname =
        Printf.sprintf "%s [%s]" name (Shard.kind_to_string plan)
      in
      Alcotest.check warnings_t (pname ^ ": warnings") base.Driver.warnings
        par.Driver.warnings;
      Alcotest.check witnesses_t (pname ^ ": witnesses")
        base.Driver.witnesses par.Driver.witnesses)
    [ Shard.Static; Shard.Stealing ]

let test_elimination_differential () =
  List.iter
    (fun (w : Workload.t) ->
      let summary = summary_of w in
      let skip = Static.eliminator ~granularity:Var.Fine summary in
      let elim_config = Config.with_static_elim skip Config.default in
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      List.iter
        (fun (name, d) ->
          check_differential
            (Printf.sprintf "%s/%s" w.name name)
            d tr ~elim_config)
        precise_detectors)
    Workloads.all

(* Coarse shadow state shares one word per object, so the Fine
   eliminator would be unsound there; the Coarse eliminator merges
   each object's site sets before certifying.  Differential under
   coarse granularity proves the composition is handled. *)
let test_elimination_differential_coarse () =
  List.iter
    (fun (w : Workload.t) ->
      let summary = summary_of w in
      let skip = Static.eliminator ~granularity:Var.Coarse summary in
      let coarse = { Config.default with granularity = Shadow.Coarse } in
      let elim_config = Config.with_static_elim skip coarse in
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      let base = Driver.run ~config:coarse (module Fasttrack) tr in
      let elim = Driver.run ~config:elim_config (module Fasttrack) tr in
      Alcotest.check warnings_t
        (w.name ^ ": coarse warnings")
        base.Driver.warnings elim.Driver.warnings;
      Alcotest.check witnesses_t
        (w.name ^ ": coarse witnesses")
        base.Driver.witnesses elim.Driver.witnesses)
    Workloads.all

(* ------------------------------------------------------------------ *)
(* linter                                                             *)

let kinds_of (s : Static.summary) =
  List.map (fun (f : Static.finding) -> f.f_kind) s.Static.findings

let has_finding s k = List.mem k (kinds_of s)

let x0 = Var.make ~obj:900 ~field:0

(* One small program per structural finding.  Join_before_fork makes
   the skeleton cyclic, which the reachability differential below
   replays too. *)
let linter_fixtures =
  [ ( "release without hold",
      Program.make [ { Program.tid = 0; body = [ Program.Release 3 ] } ],
      Static.Release_without_hold 3 );
    ( "lock never released",
      Program.make
        [ { Program.tid = 0; body = [ Program.Acquire 2; Program.Read x0 ] } ],
      Static.Lock_never_released 2 );
    ( "wait without monitor",
      Program.make [ { Program.tid = 0; body = [ Program.Wait 1 ] } ],
      Static.Wait_without_monitor 1 );
    ( "unknown barrier",
      Program.make [ { Program.tid = 0; body = [ Program.Barrier_wait 7 ] } ],
      Static.Unknown_barrier 7 );
    ( "barrier party mismatch",
      Program.make
        ~barriers:[ { Program.id = 0; parties = 3 } ]
        [ { Program.tid = 0; body = [ Program.Barrier_wait 0 ] };
          { Program.tid = 1; body = [ Program.Barrier_wait 0 ] } ],
      Static.Barrier_party_mismatch
        { barrier = 0; parties = 3; participants = 2 } );
    ( "barrier round mismatch",
      Program.make
        ~barriers:[ { Program.id = 0; parties = 2 } ]
        [ { Program.tid = 0;
            body = [ Program.Barrier_wait 0; Program.Barrier_wait 0 ] };
          { Program.tid = 1; body = [ Program.Barrier_wait 0 ] } ],
      Static.Barrier_round_mismatch { barrier = 0 } );
    ( "join of unknown",
      Program.make [ { Program.tid = 0; body = [ Program.Join 9 ] } ],
      Static.Join_of_unknown 9 );
    ( "join before fork",
      Program.make
        [ { Program.tid = 0; body = [ Program.Join 1; Program.Fork 1 ] };
          { Program.tid = 1; body = [ Program.Read x0 ] } ],
      Static.Join_before_fork 1 ) ]

let test_linter_findings () =
  List.iter
    (fun (name, program, expected) ->
      let s = Static.analyze program in
      if not (has_finding s expected) then
        Alcotest.failf "%s: expected finding missing (got %d finding(s))"
          name
          (List.length s.Static.findings))
    linter_fixtures;
  (* the built-in workloads must all lint clean *)
  List.iter
    (fun (w : Workload.t) ->
      match (summary_of w).Static.findings with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "%s: unexpected lint finding: %s" w.name
          (Format.asprintf "%a" Static.pp_finding f))
    Workloads.all

(* Lock-order (deadlock-cycle) lint: a cycle in the held→acquired
   graph alarms exactly when two or more threads contribute its edges
   — a single thread's order inversion cannot deadlock, and properly
   nested or wait-mediated acquisition must stay clean. *)
let test_lock_order_cycle () =
  let acq_rel ms body =
    List.fold_right
      (fun m inner -> (Program.Acquire m :: inner) @ [ Program.Release m ])
      ms body
  in
  let cycle_finding s =
    List.find_map
      (fun (f : Static.finding) ->
        match f.f_kind with
        | Static.Lock_order_cycle { locks } -> Some locks
        | _ -> None)
      s.Static.findings
  in
  (* two threads, opposite nesting: the classic AB/BA deadlock *)
  let s =
    Static.analyze
      (Program.make
         [ { Program.tid = 0; body = acq_rel [ 1; 2 ] [ Program.Read x0 ] };
           { Program.tid = 1; body = acq_rel [ 2; 1 ] [ Program.Read x0 ] } ])
  in
  (match cycle_finding s with
  | Some locks -> Alcotest.(check (list int)) "AB/BA cycle" [ 1; 2 ] locks
  | None -> Alcotest.fail "AB/BA inversion not reported");
  (* the same inversion inside one thread: sequential, no deadlock *)
  let s =
    Static.analyze
      (Program.make
         [ { Program.tid = 0;
             body =
               acq_rel [ 1; 2 ] [ Program.Read x0 ]
               @ acq_rel [ 2; 1 ] [ Program.Read x0 ] } ])
  in
  Alcotest.(check bool) "single-thread inversion clean" true
    (cycle_finding s = None);
  (* consistent order across threads: nesting alone is fine *)
  let s =
    Static.analyze
      (Program.make
         [ { Program.tid = 0; body = acq_rel [ 1; 2 ] [ Program.Read x0 ] };
           { Program.tid = 1; body = acq_rel [ 1; 2 ] [ Program.Write x0 ] } ])
  in
  Alcotest.(check bool) "consistent order clean" true
    (cycle_finding s = None);
  (* three threads, a 3-cycle: 5->7, 7->9, 9->5 *)
  let s =
    Static.analyze
      (Program.make
         [ { Program.tid = 0; body = acq_rel [ 5; 7 ] [] };
           { Program.tid = 1; body = acq_rel [ 7; 9 ] [] };
           { Program.tid = 2; body = acq_rel [ 9; 5 ] [] } ])
  in
  (match cycle_finding s with
  | Some locks -> Alcotest.(check (list int)) "3-cycle" [ 5; 7; 9 ] locks
  | None -> Alcotest.fail "three-lock cycle not reported");
  (* wait re-acquires its monitor while other locks stay held: thread 0
     waits on 2 while holding 1, thread 1 acquires 1 while holding 2 *)
  let s =
    Static.analyze
      (Program.make
         [ { Program.tid = 0;
             body =
               [ Program.Acquire 1; Program.Acquire 2; Program.Wait 2;
                 Program.Release 2; Program.Release 1 ] };
           { Program.tid = 1; body = acq_rel [ 2; 1 ] [] } ])
  in
  (match cycle_finding s with
  | Some locks -> Alcotest.(check (list int)) "wait cycle" [ 1; 2 ] locks
  | None -> Alcotest.fail "wait re-acquisition cycle not reported")

(* ------------------------------------------------------------------ *)
(* certificate cache                                                  *)

let test_static_cache () =
  Static_cache.clear ();
  let w =
    match Workloads.find "moldyn" with
    | Some w -> w
    | None -> Alcotest.fail "moldyn workload missing"
  in
  let thunk scale () = w.Workload.program ~scale in
  let s1 = Static_cache.analyze ~workload:"moldyn" ~scale:1 (thunk 1) in
  let s2 = Static_cache.analyze ~workload:"moldyn" ~scale:1 (thunk 1) in
  Alcotest.(check bool) "hit returns the same summary" true (s1 == s2);
  Alcotest.(check (pair int int)) "one hit, one miss" (1, 1)
    (Static_cache.stats ());
  (* a different scale is a different program: fresh derivation *)
  let s4 = Static_cache.analyze ~workload:"moldyn" ~scale:2 (thunk 2) in
  Alcotest.(check bool) "scale is part of the key" true (not (s1 == s4));
  Alcotest.(check (pair int int)) "one hit, two misses" (1, 2)
    (Static_cache.stats ());
  (* cached summaries still agree with a fresh derivation *)
  let fresh = Static.analyze (w.Workload.program ~scale:1) in
  Alcotest.(check int) "cached = fresh (certified accesses)"
    fresh.Static.certified_accesses s1.Static.certified_accesses;
  Static_cache.clear ();
  Alcotest.(check (pair int int)) "clear zeroes the counters" (0, 0)
    (Static_cache.stats ())

let test_static_cache_invalidation () =
  (* the structural hash in the key invalidates the cache when the
     program under a (workload, scale) pair changes — a lying
     generator cannot be served someone else's certificates *)
  Static_cache.clear ();
  let x = Var.make ~obj:1 ~field:0 in
  let prog_a () =
    Program.make
      [ { Program.tid = 0; body = [ Program.Write x ] };
        { Program.tid = 1; body = [ Program.Read x ] } ]
  in
  let prog_b () =
    (* same shape, but lock-protected: different structure, different
       verdicts *)
    Program.make
      [ { Program.tid = 0; body = Program.locked 7 [ Program.Write x ] };
        { Program.tid = 1; body = Program.locked 7 [ Program.Read x ] } ]
  in
  let sa = Static_cache.analyze ~workload:"liar" ~scale:1 prog_a in
  let sb = Static_cache.analyze ~workload:"liar" ~scale:1 prog_b in
  Alcotest.(check bool) "changed program misses" true (not (sa == sb));
  Alcotest.(check (pair int int)) "two misses, no hit" (0, 2)
    (Static_cache.stats ());
  Alcotest.(check string) "fresh verdict for the changed program"
    "lock_protected"
    (Static.verdict_name (Static.verdict_of sb x));
  (* the first program's summary is still there *)
  let sa' = Static_cache.analyze ~workload:"liar" ~scale:1 prog_a in
  Alcotest.(check bool) "original still cached" true (sa == sa');
  Static_cache.clear ()

(* ------------------------------------------------------------------ *)
(* prefilters forward every sync event                                *)

let filter_forwards_syncs kind tr =
  let f = Filter.create kind in
  let ok = ref true in
  Trace.iteri
    (fun index e ->
      let kept = Filter.keep f ~index e in
      if (not (Event.is_access e)) && not kept then ok := false)
    tr;
  !ok

let prefilters_forward_syncs tr =
  List.for_all (fun kind -> filter_forwards_syncs kind tr) Filter.all_kinds
  (* a Static_pre with a drop-everything predicate is the harshest
     instance: it must still forward the sync stream untouched *)
  && filter_forwards_syncs (Filter.Static_pre (fun _ -> true)) tr

(* ------------------------------------------------------------------ *)
(* random DSL programs                                                *)

(* Trace_gen-style generator over Program.t: a main thread forks
   workers and joins them; workers run blocks of accesses to a shared
   variable pool — plain, lock-protected, or volatile-flanked — with
   an optional all-worker barrier between block rounds.  Everything
   the Scheduler accepts (locks nested, joins after forks, barrier
   waits balanced), nothing more. *)
let gen_program_and_seed =
  QCheck2.Gen.(
    let* workers = int_range 1 4 in
    let* nvars = int_range 1 6 in
    let* nlocks = int_range 1 3 in
    let* rounds = int_range 1 3 in
    let* use_barrier = if workers >= 2 then bool else return false in
    let var i = Var.make ~obj:(100 + i) ~field:0 in
    let block =
      let* v = int_range 0 (nvars - 1) in
      let* nr = int_range 0 3 in
      let* nw = int_range 0 2 in
      let body = Program.reads (var v) nr @ Program.writes (var v) nw in
      let* shape = int_range 0 3 in
      match shape with
      | 0 | 1 -> return body
      | 2 ->
        let* m = int_range 0 (nlocks - 1) in
        return (Program.locked m body)
      | _ ->
        let* vo = int_range 0 1 in
        return
          ((Program.Volatile_read vo :: body)
          @ [ Program.Volatile_write vo ])
    in
    let round = list_size (int_range 1 3) block >|= List.concat in
    let* worker_bodies =
      list_repeat workers (list_repeat rounds round)
    in
    let barrier_stmt =
      if use_barrier then [ Program.Barrier_wait 0 ] else []
    in
    let worker i rs =
      { Program.tid = i + 1;
        body = List.concat_map (fun r -> r @ barrier_stmt) rs }
    in
    let* prologue = int_range 0 (nvars - 1) in
    let* epilogue = int_range 0 (nvars - 1) in
    let main =
      { Program.tid = 0;
        body =
          Program.writes (var prologue) 2
          @ List.init workers (fun i -> Program.Fork (i + 1))
          @ List.init workers (fun i -> Program.Join (i + 1))
          @ Program.reads (var epilogue) 2 }
    in
    let barriers =
      if use_barrier then [ { Program.id = 0; parties = workers } ]
      else []
    in
    let program =
      Program.make ~barriers (main :: List.mapi worker worker_bodies)
    in
    let* seed = int_range 1 1_000_000 in
    return (program, seed))

let prop_random_program (program, seed) =
  let summary = Static.analyze program in
  (* (a) every certificate replays *)
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
  (* (b) generated programs are well-formed: no lint findings *)
  if summary.Static.findings <> [] then
    QCheck2.Test.fail_reportf "unexpected lint finding on generated program";
  let tr =
    Scheduler.run
      ~options:{ Scheduler.default_options with seed }
      program
  in
  (* (c) sound elimination differential on the scheduled trace *)
  let skip = Static.eliminator ~granularity:Var.Fine summary in
  let base = Driver.run (module Fasttrack) tr in
  let elim =
    Driver.run
      ~config:(Config.with_static_elim skip Config.default)
      (module Fasttrack) tr
  in
  if base.Driver.warnings <> elim.Driver.warnings then
    QCheck2.Test.fail_reportf "warnings differ under static elimination";
  if base.Driver.witnesses <> elim.Driver.witnesses then
    QCheck2.Test.fail_reportf "witnesses differ under static elimination";
  (* (d) certified variables never warn *)
  List.iter
    (fun (warn : Warning.t) ->
      if Static.certified summary warn.Warning.x then
        QCheck2.Test.fail_reportf "warning on certified variable %s"
          (Var.to_string warn.Warning.x))
    base.Driver.warnings;
  (* (e) every prefilter forwards the whole sync stream *)
  prefilters_forward_syncs tr

let qtest_programs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150
       ~name:"random programs: certificates check, elimination sound, \
              prefilters forward syncs"
       gen_program_and_seed prop_random_program)

(* The same sync-forwarding law over raw random traces (no program
   needed for the dynamic prefilters). *)
let qtest_trace_prefilters =
  Helpers.qtest ~count:150 "prefilters forward sync events (random traces)"
    prefilters_forward_syncs

(* ------------------------------------------------------------------ *)
(* skeleton reachability, verdict stability, scaling                  *)

(* Reference reachability: a depth-first search over the skeleton's
   edges with program order spelled out, independent of the clock
   labels Static.reaches compares. *)
let reference_reach (sk : Static.skeleton) ~barriers (a : Static.node) =
  let seen = Hashtbl.create 64 in
  let rec go (n : Static.node) =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      if n.n_seg + 1 < List.assoc n.n_tid sk.sk_segs then
        go { n with n_seg = n.n_seg + 1 };
      List.iter
        (fun (e : Static.edge) ->
          match e.e_kind with
          | Static.Barrier_edge _ when not barriers -> ()
          | _ -> if e.e_from = n then go e.e_to)
        sk.sk_edges
    end
  in
  go a;
  seen

(* The first node pair, in either graph, on which Static.reaches and
   the reference disagree. *)
let reaches_mismatch (s : Static.summary) =
  let nodes =
    List.concat_map
      (fun (t, ns) ->
        List.init ns (fun seg -> { Static.n_tid = t; n_seg = seg }))
      s.Static.skeleton.sk_segs
  in
  List.find_map
    (fun barriers ->
      List.find_map
        (fun (a : Static.node) ->
          let seen = reference_reach s.Static.skeleton ~barriers a in
          List.find_map
            (fun (b : Static.node) ->
              let expected = Hashtbl.mem seen b in
              if Static.reaches s ~barriers a b = expected then None
              else
                Some
                  (Printf.sprintf
                     "t%d/s%d -> t%d/s%d (barriers %b): expected %b" a.n_tid
                     a.n_seg b.n_tid b.n_seg barriers expected))
            nodes)
        nodes)
    [ false; true ]

let certificate_failure (s : Static.summary) =
  List.find_map
    (fun (e : Static.entry) ->
      match Static.check_certificate s e with
      | Ok () -> None
      | Error msg -> Some (Var.to_string e.e_var ^ ": " ^ msg))
    s.Static.entries

let prop_reaches (program, _seed) =
  let s = Static.analyze program in
  (match reaches_mismatch s with
  | Some msg -> QCheck2.Test.fail_reportf "reaches disagrees: %s" msg
  | None -> ());
  (match certificate_failure s with
  | Some msg -> QCheck2.Test.fail_reportf "certificate rejected on %s" msg
  | None -> ());
  true

let qtest_reaches =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150
       ~name:"reaches = reference closure (random programs)"
       gen_program_and_seed prop_reaches)

let qtest_reaches_tasks =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"reaches = reference closure (random task programs)"
       Test_tasks.gen_task_program_and_seed prop_reaches)

(* Cyclic skeletons: the linter fixtures (Join_before_fork closes a
   cycle), a thread joining itself (a self-loop that blocks every later
   node of the topological pass), and two threads joining each other,
   whose writes are ordered only through the cycle. *)
let test_reaches_cyclic () =
  let mutual =
    Program.make
      [ { Program.tid = 0;
          body = [ Program.Fork 1; Program.Join 1; Program.Write x0 ] };
        { Program.tid = 1; body = [ Program.Join 0; Program.Write x0 ] } ]
  in
  let self_join =
    Program.make
      [ { Program.tid = 0;
          body = [ Program.Fork 1; Program.Join 0; Program.Write x0 ] };
        { Program.tid = 1; body = [ Program.Write x0 ] } ]
  in
  List.iter
    (fun (name, program) ->
      let s = Static.analyze program in
      (match reaches_mismatch s with
      | Some msg -> Alcotest.failf "%s: reaches disagrees: %s" name msg
      | None -> ());
      match certificate_failure s with
      | Some msg -> Alcotest.failf "%s: certificate rejected on %s" name msg
      | None -> ())
    (("mutual joins", mutual) :: ("self join", self_join)
    :: List.map (fun (name, program, _) -> (name, program)) linter_fixtures);
  Alcotest.(check string) "mutual joins: writes ordered through the cycle"
    "fork_join_ordered"
    (Static.verdict_name (Static.verdict_of (Static.analyze mutual) x0))

(* ------------------------------------------------------------------ *)
(* epoch-shaped certificates                                          *)

(* The epoch shape holds at most two chains per node: one per
   consecutive pair of writes and two per read. *)
let node_count s e =
  List.sort_uniq compare
    (List.map (fun (st : Static.site) -> (st.s_tid, st.s_seg)) (Static.sites s e))
  |> List.length

let test_certificate_size () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun scale ->
          let s = Static.analyze (w.program ~scale) in
          List.iter
            (fun (e : Static.entry) ->
              match e.e_cert with
              | Some (Static.Cert_ordered { c_order = o; _ } | Static.Cert_sp_ordered o) ->
                let chains = Array.length o.o_steps + (2 * Array.length o.o_reads)
                and nodes = node_count s e in
                if chains > 2 * nodes then
                  Alcotest.failf "%s@%d/%s: %d chains over %d nodes" w.name
                    scale (Var.to_string e.e_var) chains nodes
              | _ -> ())
            s.Static.entries)
        [ 1; 2 ])
    Workloads.all

(* The first entry (over the barrier workloads) with a graph-ordered
   certificate whose order satisfies [want]. *)
let find_ordered want =
  List.find_map
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let s = summary_of w in
      List.find_map
        (fun (e : Static.entry) ->
          match e.e_cert with
          | Some (Static.Cert_ordered { c_barrier; c_order }) when want c_order ->
            Some (s, e, c_barrier, c_order)
          | _ -> None)
        s.Static.entries)
    [ "moldyn"; "sor"; "lufact"; "sparse"; "raytracer"; "crypt"; "series" ]
  |> function
  | Some found -> found
  | None -> Alcotest.fail "no ordered certificate of the wanted shape"

let replays s (e : Static.entry) c_barrier c_order =
  Static.check_certificate s
    { e with e_cert = Some (Static.Cert_ordered { c_barrier; c_order }) }

let must_reject what s e c_barrier c_order =
  match replays s e c_barrier c_order with
  | Ok () -> Alcotest.failf "%s: mutated certificate replays" what
  | Error _ -> ()

(* Mutations of a valid certificate: each breaks the epoch shape, and
   replay must reject it. *)
let test_certificate_mutations () =
  (* a read's link to the next write: drop its chain *)
  let linked (o : Static.order) =
    Array.exists (fun (k : Static.link) -> Array.length k.k_out > 0) o.o_reads
  in
  let s, e, b, o = find_ordered linked in
  (match replays s e b o with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "unmutated certificate rejected: %s" msg);
  let dropped = ref false in
  let o_reads =
    Array.map
      (fun (k : Static.link) ->
        if (not !dropped) && Array.length k.k_out > 0 then begin
          dropped := true;
          { k with k_out = [||] }
        end
        else k)
      o.o_reads
  in
  must_reject "read without its next-write link" s e b { o with o_reads };
  (* the same read left out of the shape altogether *)
  must_reject "read link removed" s e b
    { o with o_reads = Array.sub o.o_reads 1 (Array.length o.o_reads - 1) };
  (* two consecutive writes of different threads, swapped *)
  let cross (o : Static.order) =
    let ws = o.o_writes in
    let rec go i =
      i + 1 < Array.length ws && (ws.(i).n_tid <> ws.(i + 1).n_tid || go (i + 1))
    in
    go 0
  in
  let s, e, b, o = find_ordered cross in
  let ws = Array.copy o.o_writes in
  let i =
    let rec go i = if ws.(i).n_tid <> ws.(i + 1).n_tid then i else go (i + 1) in
    go 0
  in
  let wi = ws.(i) in
  ws.(i) <- ws.(i + 1);
  ws.(i + 1) <- wi;
  must_reject "consecutive writes swapped" s e b { o with o_writes = ws };
  (* one write left out of the sequence (with its step), reads kept *)
  let s, e, b, o = find_ordered (fun o -> Array.length o.o_writes >= 2) in
  let m = Array.length o.o_writes in
  (match
     replays s e b
       { o with
         o_writes = Array.sub o.o_writes 0 (m - 1);
         o_steps = Array.sub o.o_steps 0 (m - 2) }
   with
  | Ok () -> Alcotest.fail "a write left out: mutated certificate replays"
  | Error msg ->
    if not (Astring.String.is_infix ~affix:"write nodes" msg) then
      Alcotest.failf "a write left out: rejected for another reason: %s" msg)

(* The eliminator replays before it trusts: an entry whose certificate
   was tampered with after the analysis is not certified, while the
   untouched summary certifies it. *)
let test_tampered_not_eliminated () =
  let s, e, b, o =
    find_ordered (fun o ->
        Array.exists (fun (k : Static.link) -> Array.length k.k_out > 0) o.o_reads)
  in
  let o_reads =
    Array.map (fun (k : Static.link) -> { k with k_out = [||] }) o.o_reads
  in
  let tamper cert =
    { s with
      Static.entries =
        List.map
          (fun (x : Static.entry) ->
            if Var.equal x.e_var e.e_var then { x with e_cert = Some cert } else x)
          s.Static.entries }
  in
  let skip = Static.eliminator ~granularity:Var.Fine s in
  Alcotest.(check bool) "untouched: certified" true (skip e.e_var);
  let bad = tamper (Static.Cert_ordered { c_barrier = b; c_order = { o with o_reads } }) in
  Alcotest.(check bool) "tampered chain: not certified" false
    (Static.eliminator ~granularity:Var.Fine bad e.e_var);
  (* a claim of the wrong kind, consistent with a forged verdict *)
  let t = (List.hd (Static.sites s e)).s_tid + 1 in
  let forged =
    { s with
      Static.entries =
        List.map
          (fun (x : Static.entry) ->
            if Var.equal x.e_var e.e_var then
              { x with e_verdict = Static.Thread_local t;
                       e_cert = Some (Static.Cert_thread_local t) }
            else x)
          s.Static.entries }
  in
  Alcotest.(check bool) "forged thread-local: not certified" false
    (Static.eliminator ~granularity:Var.Fine forged e.e_var);
  (* the other variables keep their answers *)
  List.iter
    (fun (x : Static.entry) ->
      if not (Var.equal x.e_var e.e_var) then
        Alcotest.(check bool)
          (Var.to_string x.e_var ^ ": unaffected")
          (skip x.e_var)
          (Static.eliminator ~granularity:Var.Fine bad x.e_var))
    s.Static.entries

(* MD5 of each workload's "var:verdict" lines (Static.pp_verdict),
   recorded when reachability was still a per-source BFS.  The
   verdicts do not depend on the scale. *)
let verdict_golden =
  [ ("colt", "28fbcd8fea1b4962c99eace8babd2ab9");
    ("crypt", "5c00067564d1e9a98026457872e602b9");
    ("lufact", "515df669b9b2c58ff510c6afadd389ec");
    ("moldyn", "bb37e83501a33bc68dc0c75ebb972bbd");
    ("montecarlo", "cbbc531e61b558a1fba4f2df9f1f23cd");
    ("mtrt", "cc6c602303539ca062466972cdf78461");
    ("raja", "7814a0e32cb2f21654e840b4349a45b7");
    ("raytracer", "1f54ea772adf7e1fec2741fd8be6fe63");
    ("sparse", "65f16e66f7f15a40921fb0ccb55b1959");
    ("series", "189f1f6f24437a144fe839a4f51702b5");
    ("sor", "b981e73d94adca8213ff535773b12394");
    ("tsp", "3f6d5ee2d3e18fa0818e209f4f685822");
    ("elevator", "5e4a448ff91257f06272db9b11bf3f3b");
    ("philo", "9b6d72e780c79afccecf71a541634fe5");
    ("hedc", "f0d9e012b72cae9035b1410ab10c4566");
    ("jbb", "795060512039766738055862b84c6234");
    ("eclipse-startup", "a8dbd317fbdbec9fb79c773975759355");
    ("eclipse-import", "f0e2d2af59f0596664f8f1d9154cba77");
    ("eclipse-clean-small", "f378f1161eaf613da1dd696186ae4b07");
    ("eclipse-clean-large", "8e3adecdb0199fe38d7eee7c23000d67");
    ("eclipse-debug", "26d4f3628bfbf2635ab49b9d520202b9");
    ("treesum", "645ba2a3c424de30912eb92df60cc2c0");
    ("taskpipe", "fb46c255cf1f24fa230c4b59f0ebccb0");
    ("daccount", "dd614b24cf5fefec4d28860be6188836") ]

let verdict_digest (s : Static.summary) =
  s.Static.entries
  |> List.map (fun (e : Static.entry) ->
         Format.asprintf "%s:%a" (Var.to_string e.e_var) Static.pp_verdict
           e.e_verdict)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let test_verdict_golden () =
  List.iter
    (fun (w : Workload.t) ->
      let expected =
        match List.assoc_opt w.name verdict_golden with
        | Some d -> d
        | None -> Alcotest.failf "%s: no golden verdict digest" w.name
      in
      List.iter
        (fun scale ->
          let s = Static.analyze (w.program ~scale) in
          let name = Printf.sprintf "%s@%d" w.name scale in
          Alcotest.(check string) (name ^ ": verdicts") expected
            (verdict_digest s);
          check_all_certificates name s)
        [ 1; 2; 4 ])
    Workloads.all

(* Static.analyze stays near-linear in the program: on moldyn, words
   allocated per access at scale 8 are at most 2.5x those at scale 1
   (a per-source BFS read 9x).  Counting words instead of time keeps
   the guard deterministic.  Gc.minor_words is exact; the major
   counters are read after a minor collection, which also brings
   direct major allocations into them. *)
let words_per_access program =
  let words () =
    let st = Gc.quick_stat () in
    Gc.minor_words () +. st.Gc.major_words -. st.Gc.promoted_words
  in
  Gc.minor ();
  let w0 = words () in
  let s = Static.analyze program in
  Gc.minor ();
  (words () -. w0) /. float_of_int s.Static.total_accesses

let moldyn_words () =
  let w =
    match Workloads.find "moldyn" with
    | Some w -> w
    | None -> Alcotest.fail "moldyn workload missing"
  in
  let p1 = w.Workload.program ~scale:1 and p8 = w.Workload.program ~scale:8 in
  (words_per_access p1, words_per_access p8)

let test_scaling_guard () =
  let r1, r8 = moldyn_words () in
  if r8 > 2.5 *. r1 then
    Alcotest.failf
      "moldyn: %.1f words/access at scale 8 vs %.1f at scale 1 (> 2.5x)" r8 r1

(* With epoch-shaped certificates nothing per variable grows faster
   than its sites: words per access stay flat (8.3 -> 5.1 when this
   bound was set; quadratic certificates read 11.0 -> 17.0). *)
let test_scaling_flat () =
  let r1, r8 = moldyn_words () in
  if r8 > 1.2 *. r1 then
    Alcotest.failf
      "moldyn: %.1f words/access at scale 8 vs %.1f at scale 1 (> 1.2x)" r8 r1

let suite =
  ( "static",
    [ Alcotest.test_case "certificates on all workloads" `Quick
        test_workload_certificates;
      Alcotest.test_case "certified fraction on structured workloads"
        `Quick test_certified_fraction;
      Alcotest.test_case "certified variables never warned" `Slow
        test_certified_never_warned;
      Alcotest.test_case "warned variables are may-race" `Quick
        test_warned_vars_are_may_race;
      Alcotest.test_case "elimination differential (seq + both plans)"
        `Slow test_elimination_differential;
      Alcotest.test_case "elimination differential (coarse)" `Quick
        test_elimination_differential_coarse;
      Alcotest.test_case "linter findings" `Quick test_linter_findings;
      Alcotest.test_case "lock-order cycle lint" `Quick
        test_lock_order_cycle;
      Alcotest.test_case "static certificate cache" `Quick
        test_static_cache;
      Alcotest.test_case "cache invalidates on structural change" `Quick
        test_static_cache_invalidation;
      qtest_programs;
      qtest_trace_prefilters;
      qtest_reaches;
      qtest_reaches_tasks;
      Alcotest.test_case "reaches on cyclic skeletons" `Quick
        test_reaches_cyclic;
      Alcotest.test_case "verdict golden at scales 1, 2, 4" `Slow
        test_verdict_golden;
      Alcotest.test_case "analysis allocation stays near-linear" `Quick
        test_scaling_guard;
      Alcotest.test_case "analysis allocation per access stays flat" `Quick
        test_scaling_flat;
      Alcotest.test_case "certificates hold at most 2 chains per node"
        `Quick test_certificate_size;
      Alcotest.test_case "mutated certificates fail replay" `Quick
        test_certificate_mutations;
      Alcotest.test_case "tampered certificates are not eliminated" `Quick
        test_tampered_not_eliminated ] )
