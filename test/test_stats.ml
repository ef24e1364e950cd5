(* Stats accumulation semantics: Driver.run_parallel's merge relies on
   Stats.merge_into / Stats.sum being exact field-wise accumulation,
   with the one deliberate exception documented in stats.mli —
   peak_words merges as the SUM of per-shard peaks (shard states
   coexist, so the sum is the honest upper bound on the simultaneous
   footprint, even though the individual peaks need not be
   simultaneous). *)

let mk ~events ~reads ~writes ~syncs ~vc_allocs ~vc_ops ~epoch_ops
    ~words () =
  let s = Stats.create () in
  s.Stats.events <- events;
  s.Stats.reads <- reads;
  s.Stats.writes <- writes;
  s.Stats.syncs <- syncs;
  s.Stats.vc_allocs <- vc_allocs;
  s.Stats.vc_ops <- vc_ops;
  s.Stats.epoch_ops <- epoch_ops;
  Stats.add_words s words;
  s

let test_merge_fieldwise () =
  let a =
    mk ~events:10 ~reads:4 ~writes:3 ~syncs:3 ~vc_allocs:2 ~vc_ops:7
      ~epoch_ops:11 ~words:100 ()
  in
  let b =
    mk ~events:5 ~reads:1 ~writes:2 ~syncs:2 ~vc_allocs:1 ~vc_ops:3
      ~epoch_ops:6 ~words:40 ()
  in
  a.Stats.vc_ops_skipped <- 4;
  b.Stats.vc_ops_skipped <- 1;
  Stats.merge_into ~into:a b;
  Alcotest.(check int) "events" 15 a.Stats.events;
  Alcotest.(check int) "reads" 5 a.Stats.reads;
  Alcotest.(check int) "writes" 5 a.Stats.writes;
  Alcotest.(check int) "syncs" 5 a.Stats.syncs;
  Alcotest.(check int) "vc_allocs" 3 a.Stats.vc_allocs;
  Alcotest.(check int) "vc_ops" 10 a.Stats.vc_ops;
  Alcotest.(check int) "vc_ops_skipped" 5 a.Stats.vc_ops_skipped;
  Alcotest.(check int) "epoch_ops" 17 a.Stats.epoch_ops;
  Alcotest.(check int) "state_words" 140 a.Stats.state_words;
  (* b is untouched *)
  Alcotest.(check int) "source unchanged" 5 b.Stats.events

let test_peak_words_sum () =
  (* Shard A peaked at 100 then shrank to 10; shard B peaked at 40.
     The merged peak is 100 + 40 (peaks coexist in the worst case),
     not max(100, 40) and not current(10) + 40. *)
  let a = Stats.create () in
  Stats.add_words a 100;
  Stats.sub_words a 90;
  let b = Stats.create () in
  Stats.add_words b 40;
  Stats.merge_into ~into:a b;
  Alcotest.(check int) "peak = sum of peaks" 140 a.Stats.peak_words;
  Alcotest.(check int) "state = sum of currents" 50 a.Stats.state_words

let test_rules_merge () =
  let a = Stats.create () in
  let b = Stats.create () in
  for _ = 1 to 3 do Stats.bump_rule a "READ SAME EPOCH" done;
  Stats.bump_rule a "WRITE EXCLUSIVE";
  for _ = 1 to 5 do Stats.bump_rule b "READ SAME EPOCH" done;
  Stats.bump_rule b "READ SHARE";
  Stats.merge_into ~into:a b;
  Alcotest.(check int) "shared rule adds" 8
    (Stats.rule_hits a "READ SAME EPOCH");
  Alcotest.(check int) "into-only rule kept" 1
    (Stats.rule_hits a "WRITE EXCLUSIVE");
  Alcotest.(check int) "source-only rule adopted" 1
    (Stats.rule_hits a "READ SHARE");
  Alcotest.(check int) "absent rule is 0" 0 (Stats.rule_hits a "NO SUCH");
  (* rules_alist is sorted by descending hits *)
  match Stats.rules_alist a with
  | (top, n) :: _ ->
    Alcotest.(check string) "top rule" "READ SAME EPOCH" top;
    Alcotest.(check int) "top hits" 8 n
  | [] -> Alcotest.fail "rules_alist empty after merge"

(* Tied rules come out by name, so every plan lists a run's rules in
   one order: a one-unit sum, a static-plan and a stealing-plan merge
   of the same counts all equal the sequential run's list (colt with
   static elimination leaves all seven FastTrack rules tied at 0). *)
let test_rules_order () =
  let s = Stats.create () in
  List.iter (Stats.bump_rule s) [ "B"; "C"; "A"; "C" ];
  Alcotest.(check (list (pair string int)))
    "count, then name" [ ("C", 2); ("A", 1); ("B", 1) ]
    (Stats.rules_alist s);
  let w = Option.get (Workloads.find "colt") in
  let tr = Workload.trace ~seed:11 ~scale:1 w in
  let skip =
    Static.eliminator ~granularity:Var.Fine
      (Static.analyze (w.Workload.program ~scale:1))
  in
  let config = Config.with_static_elim skip Config.default in
  let seq = (Driver.run ~config (module Fasttrack) tr).Driver.stats in
  let rules = Stats.rules_alist seq in
  let check label st =
    Alcotest.(check (list (pair string int))) label rules (Stats.rules_alist st)
  in
  check "Stats.sum [s]" (Stats.sum [ seq ]);
  List.iter
    (fun plan ->
      check
        (Shard.kind_to_string plan ^ " -j 2")
        (Driver.run_parallel ~config ~jobs:2 ~plan (module Fasttrack) tr)
          .Driver.stats)
    [ Shard.Static; Shard.Stealing ]

let test_sum () =
  let parts =
    List.init 4 (fun i ->
        let s =
          mk ~events:(i + 1) ~reads:i ~writes:1 ~syncs:0 ~vc_allocs:0
            ~vc_ops:i ~epoch_ops:0 ~words:(10 * (i + 1)) ()
        in
        Stats.bump_rule s "R";
        s)
  in
  let total = Stats.sum parts in
  Alcotest.(check int) "events" 10 total.Stats.events;
  Alcotest.(check int) "reads" 6 total.Stats.reads;
  Alcotest.(check int) "writes" 4 total.Stats.writes;
  Alcotest.(check int) "vc_ops" 6 total.Stats.vc_ops;
  Alcotest.(check int) "peak sum" 100 total.Stats.peak_words;
  Alcotest.(check int) "rule sum" 4 (Stats.rule_hits total "R");
  let empty = Stats.sum [] in
  Alcotest.(check int) "sum [] is zero" 0 empty.Stats.events

let test_fields_alist () =
  let s =
    mk ~events:7 ~reads:3 ~writes:2 ~syncs:2 ~vc_allocs:1 ~vc_ops:4
      ~epoch_ops:9 ~words:33 ()
  in
  let fields = Stats.fields_alist s in
  let get k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> Alcotest.failf "fields_alist missing %s" k
  in
  Alcotest.(check int) "events" 7 (get "events");
  Alcotest.(check int) "peak_words" 33 (get "peak_words");
  (* the sampling-tier counters are always exported, zero or not *)
  Alcotest.(check int) "sampled" 0 (get "sampled");
  Alcotest.(check int) "skipped" 0 (get "skipped");
  Alcotest.(check int) "vc_ops_skipped" 0 (get "vc_ops_skipped");
  Alcotest.(check int) "field count" 13 (List.length fields)

let suite =
  ( "stats",
    [ Alcotest.test_case "merge_into is field-wise" `Quick
        test_merge_fieldwise;
      Alcotest.test_case "peak_words merges as sum of peaks" `Quick
        test_peak_words_sum;
      Alcotest.test_case "rule histograms merge" `Quick test_rules_merge;
      Alcotest.test_case "rule order is the same under every plan" `Quick
        test_rules_order;
      Alcotest.test_case "sum over a list" `Quick test_sum;
      Alcotest.test_case "fields_alist covers every scalar" `Quick
        test_fields_alist ] )
