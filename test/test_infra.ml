(* Tests for the detector infrastructure: shadow memory, warning
   deduplication, statistics, the shared synchronization state, the
   driver, and the table renderer. *)

(* ---------------- Shadow ---------------- *)

let test_shadow_fine () =
  let s : int Shadow.t = Shadow.create Shadow.Fine in
  let a = Var.make ~obj:0 ~field:0 in
  let b = Var.make ~obj:0 ~field:1 in
  Alcotest.(check (option int)) "empty" None (Shadow.find s a);
  Alcotest.(check int) "init" 1 (Shadow.get s a (fun _ -> 1));
  Alcotest.(check int) "memoized" 1 (Shadow.get s a (fun _ -> 2));
  Alcotest.(check int) "fields distinct" 3 (Shadow.get s b (fun _ -> 3));
  Alcotest.(check int) "count" 2 (Shadow.count s)

let test_shadow_coarse () =
  let s : int Shadow.t = Shadow.create Shadow.Coarse in
  let a = Var.make ~obj:5 ~field:0 in
  let b = Var.make ~obj:5 ~field:9 in
  Alcotest.(check int) "init via a" 1 (Shadow.get s a (fun _ -> 1));
  Alcotest.(check int) "b shares the slot" 1 (Shadow.get s b (fun _ -> 2));
  Alcotest.(check int) "count" 1 (Shadow.count s);
  Alcotest.(check int) "keys collapse" (Shadow.key s a) (Shadow.key s b)

let test_shadow_growth () =
  let s : int Shadow.t = Shadow.create Shadow.Fine in
  for obj = 0 to 200 do
    for field = 0 to 10 do
      ignore (Shadow.get s (Var.make ~obj ~field) (fun _ -> obj + field))
    done
  done;
  Alcotest.(check int) "all created" (201 * 11) (Shadow.count s);
  Alcotest.(check (option int)) "values survive growth" (Some 150)
    (Shadow.find s (Var.make ~obj:140 ~field:10));
  let sum = ref 0 in
  Shadow.iter (fun v -> sum := !sum + v) s;
  Alcotest.(check bool) "iter visits everything" true (!sum > 0)

let test_shadow_adaptive () =
  let s : int Shadow.t = Shadow.create Shadow.Adaptive in
  let a = Var.make ~obj:5 ~field:0 in
  let b = Var.make ~obj:5 ~field:9 in
  Alcotest.(check int) "starts coarse" 1 (Shadow.get s a (fun _ -> 1));
  Alcotest.(check int) "b shares the coarse slot" 1
    (Shadow.get s b (fun _ -> 2));
  Alcotest.(check int) "coarse keys collapse" (Shadow.key s a)
    (Shadow.key s b);
  Shadow.refine s a;
  Alcotest.(check bool) "refined" true (Shadow.refined s b);
  Alcotest.(check (option int)) "coarse state abandoned" None
    (Shadow.find s a);
  Alcotest.(check int) "fresh fine state" 3 (Shadow.get s a (fun _ -> 3));
  Alcotest.(check int) "fields now distinct" 4 (Shadow.get s b (fun _ -> 4));
  Alcotest.(check bool) "fine keys distinct" true
    (Shadow.key s a <> Shadow.key s b);
  (* other objects remain coarse *)
  let c0 = Var.make ~obj:6 ~field:0 in
  let c1 = Var.make ~obj:6 ~field:3 in
  Alcotest.(check int) "other object coarse" 9
    (Shadow.get s c0 (fun _ -> 9));
  Alcotest.(check int) "other object shares" 9 (Shadow.get s c1 (fun _ -> 8))

(* ---------------- Race_log ---------------- *)

let test_race_log_dedup () =
  let log = Race_log.create () in
  let x = Var.scalar 0 in
  Race_log.report log ~key:0 ~x ~tid:1 ~index:5 ~kind:Warning.Write_write ();
  Race_log.report log ~key:0 ~x ~tid:2 ~index:9 ~kind:Warning.Write_read ();
  Race_log.report log ~key:1 ~x:(Var.scalar 1) ~tid:1 ~index:7
    ~kind:Warning.Read_write
    ~prior:{ Warning.prior_tid = 0; prior_clock = 3 } ();
  Alcotest.(check int) "two locations" 2 (Race_log.count log);
  Alcotest.(check bool) "warned" true (Race_log.warned log ~key:0);
  Alcotest.(check bool) "not warned" false (Race_log.warned log ~key:9);
  match Race_log.warnings log with
  | [ w1; w2 ] ->
    Alcotest.(check int) "chronological" 5 w1.Warning.index;
    Alcotest.(check int) "second" 7 w2.Warning.index
  | _ -> Alcotest.fail "expected two warnings"

(* ---------------- Stats ---------------- *)

let test_stats_counters () =
  let s = Stats.create () in
  let r = Stats.counter s "RULE" in
  incr r;
  incr r;
  Alcotest.(check int) "counter ref shared" 2 (Stats.rule_hits s "RULE");
  Stats.bump_rule s "RULE";
  Alcotest.(check int) "bump uses same ref" 3 (Stats.rule_hits s "RULE");
  Stats.add_words s 100;
  Stats.sub_words s 40;
  Stats.add_words s 10;
  Alcotest.(check int) "current words" 70 s.Stats.state_words;
  Alcotest.(check int) "peak words" 100 s.Stats.peak_words

(* ---------------- Vc_state ---------------- *)

let test_vc_state_initial () =
  let s = Vc_state.create (Stats.create ()) in
  Alcotest.(check string) "E(t) = 1@t" "1@3"
    (Epoch.to_string (Vc_state.epoch s 3));
  Alcotest.(check int) "C_t(t) = 1" 1 (Vector_clock.get (Vc_state.clock s 3) 3)

let test_vc_state_release_acquire () =
  let s = Vc_state.create (Stats.create ()) in
  ignore (Vc_state.handle_sync s (Event.Release { t = 0; m = 0 }));
  (* the release increments thread 0's epoch *)
  Alcotest.(check string) "epoch advanced" "2@0"
    (Epoch.to_string (Vc_state.epoch s 0));
  ignore (Vc_state.handle_sync s (Event.Acquire { t = 1; m = 0 }));
  (* thread 1 now knows thread 0's release *)
  Alcotest.(check int) "C_1(0) = 1" 1 (Vector_clock.get (Vc_state.clock s 1) 0);
  Alcotest.(check string) "own epoch unchanged" "1@1"
    (Epoch.to_string (Vc_state.epoch s 1))

let test_vc_state_fork_join () =
  let s = Vc_state.create (Stats.create ()) in
  ignore (Vc_state.handle_sync s (Event.Fork { t = 0; u = 1 }));
  Alcotest.(check int) "child sees parent" 1
    (Vector_clock.get (Vc_state.clock s 1) 0);
  Alcotest.(check string) "parent epoch advanced" "2@0"
    (Epoch.to_string (Vc_state.epoch s 0));
  ignore (Vc_state.handle_sync s (Event.Join { t = 0; u = 1 }));
  Alcotest.(check int) "parent sees child" 1
    (Vector_clock.get (Vc_state.clock s 0) 1)

let test_vc_state_barrier () =
  let s = Vc_state.create (Stats.create ()) in
  ignore
    (Vc_state.handle_sync s (Event.Barrier_release { threads = [ 0; 1; 2 ] }));
  (* every participant's clock now dominates the others' pre-barrier
     clocks, and each got a private increment *)
  List.iter
    (fun t ->
      List.iter
        (fun u ->
          let c = Vector_clock.get (Vc_state.clock s t) u in
          if Tid.equal t u then Alcotest.(check int) "own entry" 2 c
          else Alcotest.(check int) "peer entry" 1 c)
        [ 0; 1; 2 ])
    [ 0; 1; 2 ]

(* The two O(1) lock rules, and the cases that must defeat them. *)
let run_sync events =
  let stats = Stats.create () in
  let s = Vc_state.create stats in
  List.iter (fun e -> ignore (Vc_state.handle_sync s e)) events;
  (s, stats)

let test_vc_state_own_reacquire () =
  let s, stats =
    run_sync [ Event.Release { t = 0; m = 0 }; Event.Acquire { t = 0; m = 0 } ]
  in
  Alcotest.(check int) "both count as vc ops" 2 stats.Stats.vc_ops;
  Alcotest.(check int) "acquire skipped" 1 stats.Stats.vc_ops_skipped;
  Alcotest.(check string) "epoch as after the release" "2@0"
    (Epoch.to_string (Vc_state.epoch s 0))

let test_vc_state_other_releaser () =
  let s, stats =
    run_sync
      [ Event.Release { t = 0; m = 0 };
        Event.Release { t = 1; m = 0 };
        Event.Acquire { t = 0; m = 0 } ]
  in
  Alcotest.(check int) "nothing skipped" 0 stats.Stats.vc_ops_skipped;
  Alcotest.(check int) "C_0(1) from thread 1's release" 1
    (Vector_clock.get (Vc_state.clock s 0) 1)

let test_vc_state_repeat_release () =
  (* t=0 releases m twice; the second release writes one entry *)
  let _, stats =
    run_sync [ Event.Release { t = 0; m = 0 }; Event.Release { t = 0; m = 0 } ]
  in
  Alcotest.(check int) "one-entry release" 1 stats.Stats.vc_ops_skipped;
  (* a volatile read between the releases raises C_0(1), so the second
     release must copy all of C_0 into L_m, or thread 2's acquire
     misses thread 1's volatile write *)
  let s, stats =
    run_sync
      [ Event.Release { t = 0; m = 0 };
        Event.Volatile_write { t = 1; v = 0 };
        Event.Volatile_read { t = 0; v = 0 };
        Event.Release { t = 0; m = 0 };
        Event.Acquire { t = 2; m = 0 } ]
  in
  Alcotest.(check int) "full copy" 0 stats.Stats.vc_ops_skipped;
  Alcotest.(check int) "C_2(1) through L_m" 1
    (Vector_clock.get (Vc_state.clock s 2) 1);
  Alcotest.(check int) "C_2(0) through L_m" 2
    (Vector_clock.get (Vc_state.clock s 2) 0)

let test_vc_state_dispatch () =
  let s = Vc_state.create (Stats.create ()) in
  Alcotest.(check bool) "sync handled" true
    (Vc_state.handle_sync s (Event.Acquire { t = 0; m = 0 }));
  Alcotest.(check bool) "txn handled" true
    (Vc_state.handle_sync s (Event.Txn_begin { t = 0 }));
  Alcotest.(check bool) "access not handled" false
    (Vc_state.handle_sync s (Event.Read { t = 0; x = Var.scalar 0 }))

(* ---------------- Driver ---------------- *)

let test_driver_replay_and_run () =
  let tr =
    Trace_gen.generate ~seed:5 { Trace_gen.default with length = 200 }
  in
  let base = Driver.replay ~repeat:3 tr in
  Alcotest.(check bool) "replay time sane" true (base >= 0.);
  let r = Driver.run (module Empty_tool) tr in
  Alcotest.(check int) "all events seen" (Trace.length tr)
    r.stats.Stats.events;
  Alcotest.(check string) "tool name" "Empty" r.tool

(* ---------------- Table ---------------- *)

let test_table_render () =
  let t =
    Table.create ~columns:[ ("Name", Table.Left); ("N", Table.Right) ]
  in
  Table.add_row t [ "a"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "long-name"; "12345" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (Astring.String.is_infix ~affix:"Name" s);
  Alcotest.(check bool) "right aligned" true
    (Astring.String.is_infix ~affix:"    1 |" s);
  (match Table.add_row t [ "too"; "many"; "cells" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "row width mismatch should raise")

let test_table_formats () =
  Alcotest.(check string) "fmt_int" "1,234,567" (Table.fmt_int 1234567);
  Alcotest.(check string) "fmt_int small" "42" (Table.fmt_int 42);
  Alcotest.(check string) "fmt_slowdown" "3.1" (Table.fmt_slowdown 3.14);
  Alcotest.(check string) "fmt_slowdown tiny" "-" (Table.fmt_slowdown 0.01)

let suite =
  ( "infrastructure",
    [ Alcotest.test_case "shadow: fine" `Quick test_shadow_fine;
      Alcotest.test_case "shadow: coarse" `Quick test_shadow_coarse;
      Alcotest.test_case "shadow: growth" `Quick test_shadow_growth;
      Alcotest.test_case "shadow: adaptive" `Quick test_shadow_adaptive;
      Alcotest.test_case "race log dedup" `Quick test_race_log_dedup;
      Alcotest.test_case "stats counters" `Quick test_stats_counters;
      Alcotest.test_case "vc state: initial" `Quick test_vc_state_initial;
      Alcotest.test_case "vc state: release/acquire" `Quick
        test_vc_state_release_acquire;
      Alcotest.test_case "vc state: fork/join" `Quick test_vc_state_fork_join;
      Alcotest.test_case "vc state: barrier" `Quick test_vc_state_barrier;
      Alcotest.test_case "vc state: reacquire by last releaser" `Quick
        test_vc_state_own_reacquire;
      Alcotest.test_case "vc state: another releaser forces the join" `Quick
        test_vc_state_other_releaser;
      Alcotest.test_case "vc state: repeat release after a raise" `Quick
        test_vc_state_repeat_release;
      Alcotest.test_case "vc state: dispatch" `Quick test_vc_state_dispatch;
      Alcotest.test_case "driver" `Quick test_driver_replay_and_run;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table formats" `Quick test_table_formats ] )
