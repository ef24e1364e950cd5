(* Tests of the executable specification — most importantly, the two
   directions of Theorem 1 checked against the independent
   happens-before oracle, and the Definition 1 well-formedness
   invariants (Lemmas 1 and 2). *)

(* Theorem 1, checked on random feasible traces:
   σ₀ ⇒α σ exists  ⟺  α is race-free. *)
let prop_theorem_1 =
  Helpers.qtest ~count:300 "Theorem 1: stuck iff racy" (fun tr ->
      let ref_ok = Result.is_ok (Fasttrack_ref.run tr) in
      let oracle_free = Happens_before.race_free tr in
      ref_ok = oracle_free)

(* The specification and the optimized detector agree on where the
   first race happens. *)
let prop_first_race_agrees =
  Helpers.qtest ~count:300 "spec stuck point = detector's first warning"
    (fun tr ->
      let ft_first =
        match (Driver.run (module Fasttrack) tr).warnings with
        | [] -> None
        | w :: _ -> Some w.Warning.index
      in
      let ref_first =
        match Fasttrack_ref.run tr with
        | Ok _ -> None
        | Error stuck -> Some stuck.Fasttrack_ref.index
      in
      ft_first = ref_first)

(* Definition 1 (well-formedness), preserved by every step:
   1. ∀u≠t. C_u(t) < C_t(t)
   2. ∀m,t. L_m(t) < C_t(t)   (we check ≤ entry-wise via clocks)
   3. ∀x,t. R_x(t) ≤ C_t(t)
   4. ∀x,t. W_x(t) ≤ C_t(t) *)
let well_formed tr state =
  let nthreads = max (Trace.thread_count tr) 1 in
  let tids = List.init nthreads Fun.id in
  let clock_of t = Fasttrack_ref.clock_of state t in
  let ok1 =
    List.for_all
      (fun t ->
        List.for_all
          (fun u ->
            Tid.equal u t
            || Fasttrack_ref.Vc.get (clock_of u) t
               < Fasttrack_ref.Vc.get (clock_of t) t)
          tids)
      tids
  in
  let vars = Trace.vars tr in
  let read_ok x =
    match Fasttrack_ref.read_of state x with
    | Fasttrack_ref.REpoch e ->
      Epoch.clock e
      <= Fasttrack_ref.Vc.get (clock_of (Epoch.tid e)) (Epoch.tid e)
    | Fasttrack_ref.RShared v ->
      List.for_all
        (fun t ->
          Fasttrack_ref.Vc.get v t
          <= Fasttrack_ref.Vc.get (clock_of t) t)
        tids
  in
  let write_ok x =
    let e = Fasttrack_ref.write_of state x in
    Epoch.clock e
    <= Fasttrack_ref.Vc.get (clock_of (Epoch.tid e)) (Epoch.tid e)
  in
  ok1 && List.for_all read_ok vars && List.for_all write_ok vars

let prop_well_formedness_preserved =
  Helpers.qtest ~count:150 "Definition 1 invariants preserved" (fun tr ->
      let rec go state i =
        if i >= Trace.length tr then true
        else
          match Fasttrack_ref.step state ~index:i (Trace.get tr i) with
          | Error _ -> true (* stuck is fine; invariants held so far *)
          | Ok state' -> well_formed tr state' && go state' (i + 1)
      in
      go Fasttrack_ref.initial 0)

(* The rule the specification would fire matches the optimized
   detector's histogram in the aggregate. *)
let test_rule_histogram_agrees () =
  (* needs a race-free trace: the specification stops at a race while
     the optimized detector keeps counting *)
  let params =
    { Trace_gen.default with length = 400;
      profile = Trace_gen.Synchronized }
  in
  let rec find_race_free seed =
    if seed > 2000 then Alcotest.fail "no race-free trace found"
    else
      let tr = Trace_gen.generate ~seed params in
      if Happens_before.race_free tr then tr else find_race_free (seed + 1)
  in
  let tr = find_race_free 99 in
  let counts = Hashtbl.create 16 in
  let rec go state i =
    if i < Trace.length tr then begin
      let e = Trace.get tr i in
      (match Fasttrack_ref.rule_name state e with
      | Some rule ->
        Hashtbl.replace counts rule
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts rule))
      | None -> ());
      match Fasttrack_ref.step state ~index:i e with
      | Ok state' -> go state' (i + 1)
      | Error _ -> ()
    end
  in
  go Fasttrack_ref.initial 0;
  let d = Driver.run (module Fasttrack) tr in
  List.iter
    (fun rule ->
      Alcotest.(check int) rule
        (Option.value ~default:0 (Hashtbl.find_opt counts rule))
        (Stats.rule_hits d.stats rule))
    [ "READ SAME EPOCH"; "READ SHARED"; "READ EXCLUSIVE"; "READ SHARE";
      "WRITE SAME EPOCH"; "WRITE EXCLUSIVE"; "WRITE SHARED" ]

let test_initial_state () =
  let s = Fasttrack_ref.initial in
  Alcotest.(check int) "C_t(t) = 1" 1
    (Fasttrack_ref.Vc.get (Fasttrack_ref.clock_of s 5) 5);
  Alcotest.(check int) "C_t(u) = 0" 0
    (Fasttrack_ref.Vc.get (Fasttrack_ref.clock_of s 5) 3);
  (match Fasttrack_ref.read_of s (Var.scalar 0) with
  | Fasttrack_ref.REpoch e ->
    Alcotest.(check bool) "R_x = ⊥e" true (Epoch.is_bottom e)
  | _ -> Alcotest.fail "fresh read history should be an epoch");
  Alcotest.(check bool) "W_x = ⊥e" true
    (Epoch.is_bottom (Fasttrack_ref.write_of s (Var.scalar 0)))

let sync_only tr =
  Trace.of_list
    (List.filter (fun e -> not (Event.is_access e)) (Trace.to_list tr))

(* Vc_state skips an acquire of m by m's last releaser and rewrites
   one entry of L_m on a repeat release; neither shortcut may change a
   clock.  Checked after every event of sync-only traces (which never
   get stuck) against the specification, which has no shortcuts.
   Returns the Vc_state's stats. *)
let check_clocks_against_spec name tr =
  let n = max (Trace.thread_count tr) 1 in
  let stats = Stats.create () in
  let st = Vc_state.create stats in
  let spec = ref Fasttrack_ref.initial in
  Trace.iteri
    (fun index e ->
      ignore (Vc_state.handle_sync st e);
      (match Fasttrack_ref.step !spec ~index e with
      | Ok s -> spec := s
      | Error _ -> Alcotest.failf "%s: spec stuck at [%d]" name index);
      for t = 0 to n - 1 do
        let live = Vc_state.clock st t
        and want = Fasttrack_ref.clock_of !spec t in
        for u = 0 to n - 1 do
          let a = Vector_clock.get live u and b = Fasttrack_ref.Vc.get want u in
          if a <> b then
            Alcotest.failf "%s: C_%d(%d) after [%d] is %d, spec %d" name t u
              index a b
        done
      done)
    tr;
  stats

(* The perfbench [wide] shape: many threads, 8 locks, ~29 % sync. *)
let wide_trace ~threads ~seed ~length =
  Trace_gen.generate ~seed
    { Trace_gen.threads; vars = 256; locks = 8; volatiles = 4; length;
      profile = Trace_gen.Synchronized; barriers = false }

let test_sync_clocks_generated () =
  List.iter
    (fun threads ->
      List.iter
        (fun seed ->
          let tr = sync_only (wide_trace ~threads ~seed ~length:1200) in
          ignore
            (check_clocks_against_spec
               (Printf.sprintf "wide-%d seed %d" threads seed)
               tr))
        [ 1; 2; 3 ])
    [ 16; 64; 128 ]

let test_sync_clocks_workloads () =
  List.iter
    (fun w ->
      ignore
        (check_clocks_against_spec w.Workload.name
           (sync_only (Workload.trace ~scale:1 w))))
    Workloads.all

(* [vc_ops] still counts every O(n) rule application, skipped or not
   (Table 2 does not move), and the stealing plan's sync timeline
   skips exactly what Vc_state skips. *)
let rule_applications tr =
  Trace.fold
    (fun n e ->
      match e with
      | Event.Read _ | Event.Write _ | Event.Txn_begin _ | Event.Txn_end _ -> n
      | Event.Barrier_release { threads } -> n + (2 * List.length threads)
      | _ -> n + 1)
    0 tr

let test_skip_counts () =
  List.iter
    (fun threads ->
      let tr = wide_trace ~threads ~seed:7 ~length:4000 in
      let name = Printf.sprintf "wide-%d" threads in
      let st = check_clocks_against_spec name (sync_only tr) in
      Alcotest.(check int) (name ^ ": vc_ops = rule applications")
        (rule_applications tr) st.Stats.vc_ops;
      if st.Stats.vc_ops_skipped <= 0 then
        Alcotest.failf "%s: no sync op was skipped" name;
      let ts = Sync_timeline.stats (Sync_timeline.build tr) in
      Alcotest.(check (pair int int)) (name ^ ": timeline counts")
        (st.Stats.vc_ops, st.Stats.vc_ops_skipped)
        (ts.Sync_timeline.vc_ops, ts.Sync_timeline.vc_ops_skipped);
      let seq = Driver.run (module Fasttrack) tr in
      let steal =
        Driver.run_parallel ~jobs:2 ~plan:Shard.Stealing (module Fasttrack) tr
      in
      Alcotest.(check int) (name ^ ": sequential skips")
        st.Stats.vc_ops_skipped seq.Driver.stats.Stats.vc_ops_skipped;
      Alcotest.(check int) (name ^ ": stealing skips")
        st.Stats.vc_ops_skipped steal.Driver.stats.Stats.vc_ops_skipped)
    [ 16; 64; 128 ]

let suite =
  ( "fasttrack spec",
    [ Alcotest.test_case "initial state" `Quick test_initial_state;
      Alcotest.test_case "rule histogram agrees" `Quick
        test_rule_histogram_agrees;
      prop_theorem_1;
      prop_first_race_agrees;
      prop_well_formedness_preserved;
      Alcotest.test_case "no-op sync rules keep clocks: generated" `Quick
        test_sync_clocks_generated;
      Alcotest.test_case "no-op sync rules keep clocks: workloads" `Quick
        test_sync_clocks_workloads;
      Alcotest.test_case "no-op sync rules: vc_ops and skip counts" `Quick
        test_skip_counts ] )
