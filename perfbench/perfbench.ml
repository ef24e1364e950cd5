(* perfbench — the repository benchmark.

   Times each `ftrace analyze` analysis mode from trace source to
   verdict, in-process, over one workload's inputs, and checks every
   verdict against the happens-before oracle.  It calls the public
   functions the CLI calls rather than running the CLI: `ftrace analyze
   <workload>` always runs at scale 1, and trace files would make the
   text parser dominate every mode.  With --trace 1 a separate run
   records spans around each call into a layer and reports the
   per-layer split.  See README.md in this directory. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let traced = ref false
let size = ref Inputs.Full
let host = ref ""

let usage =
  "perfbench --workload table1|recorded|wide --seed N --seconds S --trace 0|1"

let args =
  [ ("--workload", Arg.Symbol (Inputs.names, fun w -> workload := w),
     " the workload to run");
    ("--seed", Arg.Set_int seed, "N seed the inputs are built from");
    ("--seconds", Arg.Set_float seconds, "S how long to measure");
    ("--trace", Arg.Int (fun t -> traced := t <> 0),
     "0|1 1: the traced run, reporting per-layer metrics");
    ("--size",
     Arg.Symbol
       ([ "full"; "tiny" ],
        fun s -> size := if s = "tiny" then Inputs.Tiny else Inputs.Full),
     " tiny: smoke-run inputs");
    ("--host", Arg.Set_string host, "TEXT host facts to print with results") ]

(* ------------------------------------------------------------------ *)
(* Analysis modes: each mirrors one `ftrace analyze` invocation on one *)
(* input, from its source to the verdict.                              *)

(* Counts a pass reports beside its spans, summed over the inputs. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let load (inp : Inputs.t) =
  match inp.Inputs.source with
  | Inputs.Memory tr -> tr
  | Inputs.Text text ->
    Span.with_ "trace.parse" (fun () ->
        match Trace.of_string text with
        | Ok tr -> tr
        | Error msg -> failwith (inp.Inputs.name ^ ": " ^ msg))

let ft inp =
  let tr = load inp in
  Span.with_ "detector.ft" (fun () -> Driver.run (module Fasttrack) tr)

(* Config.default carries Config.default_sampling, as `-t sampling`
   does. *)
let sampling inp =
  let tr = load inp in
  Span.with_ "sampling.run" (fun () -> Driver.run (module Sampling_ft) tr)

let steal inp =
  let tr = load inp in
  Span.with_ "parallel.items" (fun () ->
      let r =
        Driver.run_parallel ~jobs:1 ~plan:Shard.Stealing (module Fasttrack) tr
      in
      (* The prefix runs first inside the call and reports its own wall. *)
      Span.derived "parallel.prefix" r.Driver.prefix_wall;
      r)

let elim (inp : Inputs.t) =
  let tr = load inp in
  let skip =
    Span.with_ "static.analyze" (fun () ->
        let s = Static.analyze (inp.Inputs.program ()) in
        Span.bump counts "static.certified"
          (float_of_int s.Static.certified_accesses);
        Span.bump counts "static.accesses"
          (float_of_int s.Static.total_accesses);
        Static.eliminator ~granularity:Var.Fine s)
  in
  Span.with_ "detector.elim" (fun () ->
      Driver.run
        ~config:(Config.with_static_elim skip Config.default)
        (module Fasttrack) tr)

(* --metrics and --profile: the hooks on, then both documents rendered
   in memory. *)
let obs (inp : Inputs.t) =
  let tr = load inp in
  let r, obs, prof =
    Span.with_ "obs.run" (fun () ->
        let obs = Obs.create ~gc_every:8192 () and prof = Obs_prof.create () in
        let config = Config.with_prof prof (Config.with_obs obs Config.default) in
        (Driver.run ~config (module Fasttrack) tr, obs, prof))
  in
  Span.with_ "obs.export" (fun () ->
      let source = inp.Inputs.name in
      let metrics = Driver.export_metrics ~source ~obs r in
      let profile =
        Obs_json.to_string
          (Obs_prof.document ~source ~tool:r.Driver.tool ~wall:r.Driver.wall
             ~stats:(Stats.fields_alist r.Driver.stats) prof)
      in
      Span.bump counts "obs.export_bytes"
        (float_of_int (String.length metrics + String.length profile)));
  r

let modes =
  [ ("ft", ft); ("sampling", sampling); ("steal", steal); ("elim", elim);
    ("obs", obs) ]

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)

(* Distinct warning lists per (mode, input index), with the number of
   passes that produced each. *)
let verdicts : (string * int, (Warning.t list * int ref) list) Hashtbl.t =
  Hashtbl.create 64

let add_verdict key ws k =
  let seen = Option.value ~default:[] (Hashtbl.find_opt verdicts key) in
  match List.assoc_opt ws seen with
  | Some n -> n := !n + k
  | None -> Hashtbl.replace verdicts key ((ws, ref k) :: seen)

let note_verdicts mode results =
  List.iteri (fun i (r : Driver.result) -> add_verdict (mode, i) r.Driver.warnings 1) results

let racy_vars vars = List.sort_uniq Var.compare vars
let warned ws = racy_vars (List.map (fun (w : Warning.t) -> w.Warning.x) ws)

(* Every verdict against the reference: the happens-before oracle's
   racy variables, whose count must also equal a model's documented
   race count.  Sampling must report a subset; every other mode exactly
   the reference, with one warning list across modes and passes.  The
   oracle is quadratic in the accesses per variable, so it runs once per
   input, after all timing.  Returns (attempted, failed). *)
let check inputs =
  let attempted = ref 0 and failed = ref 0 in
  List.iteri
    (fun i (inp : Inputs.t) ->
      let oracle = racy_vars (Happens_before.racy_vars (load inp)) in
      let reference_ok =
        match inp.Inputs.expected_races with
        | Some n -> n = List.length oracle
        | None -> true
      in
      if not reference_ok then
        Printf.printf "MISMATCH %s: oracle finds %d racy variables, the model documents %s\n"
          inp.Inputs.name (List.length oracle)
          (Option.fold ~none:"-" ~some:string_of_int inp.Inputs.expected_races);
      let exact = ref None in
      List.iter
        (fun (mode, _) ->
          List.iter
            (fun (ws, n) ->
              let vars = warned ws in
              let ok =
                reference_ok
                &&
                if mode = "sampling" then
                  List.for_all (fun x -> List.mem x oracle) vars
                else
                  vars = oracle
                  &&
                  match !exact with
                  | None -> exact := Some ws; true
                  | Some first -> first = ws
              in
              attempted := !attempted + !n;
              if not ok then begin
                failed := !failed + !n;
                Printf.printf
                  "MISMATCH %s/%s: %d warning(s) on %d variable(s); oracle: %d racy variable(s)\n"
                  inp.Inputs.name mode (List.length ws) (List.length vars)
                  (List.length oracle)
              end)
            (List.rev (Option.value ~default:[] (Hashtbl.find_opt verdicts (mode, i)))))
        modes)
    inputs;
  (!attempted, !failed)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)

let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let ratio a b = if b > 0. then a /. b else 0.

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

type pass = {
  wall : float;
  alloc_mb : float;
  selfs : (string, float) Hashtbl.t;  (** empty unless traced *)
  results : Driver.result list;
}

(* One mode over every input.  Full major collections first, outside
   the timing, so each pass starts from the same heap state. *)
let run_pass ~traced:on (mode, run) inputs =
  Gc.full_major ();
  Gc.full_major ();
  Hashtbl.reset counts;
  let since = Span.mark () in
  Span.enabled := on;
  let a0 = Gc.allocated_bytes () in
  let results, wall =
    Obs_clock.wall_time (fun () ->
        Span.with_ ("mode." ^ mode) (fun () -> List.map run inputs))
  in
  let alloc = Gc.allocated_bytes () -. a0 in
  Span.enabled := false;
  note_verdicts mode results;
  { wall; alloc_mb = alloc /. 1e6; selfs = Span.self_times ~since; results }

(* What a measuring child sends back. *)
type report = {
  walls : float list;  (** untraced pass seconds *)
  allocs : float list;  (** untraced pass allocation, MB *)
  selfs : (string, float) Hashtbl.t list;  (** traced passes *)
  results : Driver.result list;  (** the last pass's, one per input *)
  noted : (string, float) Hashtbl.t;  (** the last pass's counts *)
  seen : ((string * int) * (Warning.t list * int ref) list) list;
  peak_mb : float;
  spans : Span.t list list;
      (** per measuring process, newest first; ids are unique within one *)
}

(* Runs [f] in a forked child and returns its result.  Every mode is
   measured in a process of its own, forked from the same post-setup
   heap: Static.analyze grows the heap several-fold and the Obs hooks
   run full collections, and either slows whatever runs after it in the
   same process by up to a third. *)
let in_child (f : unit -> report) =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (r : (report, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      try (Marshal.from_channel ic : (report, string) result)
      with End_of_file -> Error "measuring child died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (match r with Ok report -> report | Error msg -> failwith msg)

let report ~walls ~allocs ~selfs ~last ~since =
  let results, noted = Option.value ~default:([], Hashtbl.create 1) last in
  { walls; allocs; selfs; results; noted;
    seen = Hashtbl.fold (fun k v acc -> (k, v) :: acc) verdicts [];
    peak_mb = peak_heap_mb ();
    spans = [ List.filter (fun (s : Span.t) -> s.Span.id >= since) !Span.recorded ] }

(* Passes of one mode for [slice] seconds, and at least one, after one
   untimed pass: a child's first pass grows the heap (Static.analyze
   several-fold), and its page faults would make the first pass the
   slowest.  In the traced run each round is an untraced and a traced
   pass, in an order that alternates between rounds and children. *)
let measure ~layered ~slice ~child m inputs () =
  Hashtbl.reset verdicts;
  ignore (run_pass ~traced:false m inputs);
  let since = Span.mark () in
  let walls = ref [] and allocs = ref [] and selfs = ref [] and last = ref None in
  let pass ~traced =
    let p = run_pass ~traced m inputs in
    last := Some (p.results, Hashtbl.copy counts);
    if traced then selfs := p.selfs :: !selfs
    else begin
      walls := p.wall :: !walls;
      allocs := p.alloc_mb :: !allocs
    end
  in
  let deadline = Obs_clock.now () +. slice in
  let n = ref 0 in
  while !n < 1 || Obs_clock.now () < deadline do
    if not layered then pass ~traced:false
    else if (!n + child) mod 2 = 0 then (pass ~traced:false; pass ~traced:true)
    else (pass ~traced:true; pass ~traced:false);
    incr n
  done;
  report ~walls:!walls ~allocs:!allocs ~selfs:!selfs ~last:!last ~since

(* Library calls outside the analysis modes, three passes: the replay
   baseline, the empty tool, validation, and the stealing prefix on its
   own for its route/build split. *)
let probe inputs () =
  let since = Span.mark () in
  let selfs =
    List.init 3 (fun _ ->
        Gc.full_major ();
        Hashtbl.reset counts;
        let mark = Span.mark () in
        Span.enabled := true;
        Span.with_ "probe" (fun () ->
            List.iter
              (fun inp ->
                let tr = load inp in
                ignore (Span.with_ "detector.replay" (fun () -> Driver.replay tr));
                ignore
                  (Span.with_ "detector.empty" (fun () ->
                       Driver.run (module Empty_tool) tr));
                ignore (Span.with_ "trace.validate" (fun () -> Validity.check tr));
                Span.with_ "parallel.prefix" (fun () ->
                    let p = Prefix.build ~jobs:1 tr in
                    Span.derived "parallel.route" p.Prefix.route_wall;
                    Span.derived ~offset:p.Prefix.route_wall "parallel.timeline"
                      p.Prefix.build_wall;
                    let ts = Sync_timeline.stats p.Prefix.timeline in
                    Span.bump counts "timeline.checkpoints"
                      (float_of_int ts.Sync_timeline.checkpoints);
                    Span.bump counts "timeline.snapshots"
                      (float_of_int ts.Sync_timeline.snapshots);
                    Span.bump counts "timeline.vc_ops"
                      (float_of_int ts.Sync_timeline.vc_ops)))
              inputs);
        Span.enabled := false;
        Span.self_times ~since:mark)
  in
  report ~walls:[] ~allocs:[] ~selfs ~last:(Some ([], Hashtbl.copy counts)) ~since

let builds = 7

(* Builds the inputs [builds] times, dropping the previous copy first,
   and keeps the last.  Returns the inputs, each build's seconds and
   each build's span self times. *)
let setup () =
  let current = ref [] in
  let runs =
    List.init builds (fun _ ->
        current := [];
        Gc.full_major ();
        let since = Span.mark () in
        Span.enabled := !traced;
        let inputs, secs = Inputs.build !workload ~size:!size ~seed:!seed in
        Span.enabled := false;
        current := inputs;
        (secs, Span.self_times ~since))
  in
  Gc.full_major ();
  (!current, List.map fst runs, List.map snd runs)

(* Rounds of measuring children, one child per mode and round, each
   given an equal share of the run's seconds.  Several short children
   per mode, interleaved with the other modes, spread a slow spell of
   the host over every mode instead of one. *)
let child_rounds = 6

let measure_modes ~layered ~slots inputs =
  let slice = !seconds /. float_of_int (child_rounds * slots) in
  let children =
    List.init child_rounds (fun child ->
        List.map
          (fun ((name, _) as m) ->
            (name, in_child (measure ~layered ~slice ~child m inputs)))
          modes)
  in
  List.map
    (fun (name, _) ->
      let rs = List.map (List.assoc name) children in
      List.iter
        (fun r ->
          List.iter
            (fun (key, seen) -> List.iter (fun (ws, n) -> add_verdict key ws !n) seen)
            r.seen)
        rs;
      let last = List.nth rs (child_rounds - 1) in
      ( name,
        { last with
          walls = List.concat_map (fun r -> r.walls) rs;
          allocs = List.concat_map (fun r -> r.allocs) rs;
          selfs = List.concat_map (fun r -> r.selfs) rs;
          peak_mb = List.fold_left (fun acc r -> Float.max acc r.peak_mb) 0. rs;
          spans = List.concat_map (fun r -> r.spans) rs } ))
    modes

let total_events inputs =
  List.fold_left (fun acc (i : Inputs.t) -> acc + i.Inputs.events) 0 inputs

let print_inputs inputs =
  Printf.printf "workload %s, seed %d: %d inputs\n" !workload !seed
    (List.length inputs);
  Printf.printf "  %-20s %10s %8s %7s\n" "input" "events" "threads" "sync%";
  List.iter
    (fun (i : Inputs.t) ->
      Printf.printf "  %-20s %10d %8d %7.2f\n" i.Inputs.name i.Inputs.events
        i.Inputs.threads
        (100. *. ratio (float_of_int i.Inputs.syncs) (float_of_int i.Inputs.events)))
    inputs;
  Printf.printf "  %-20s %10d\n" "total" (total_events inputs)

let check_timed inputs =
  let (attempted, failed), secs = Obs_clock.wall_time (fun () -> check inputs) in
  Printf.printf "verdicts: %d attempted, %d failed, failed_frac %g (oracle %.2f s)\n"
    attempted failed
    (ratio (float_of_int failed) (float_of_int attempted))
    secs;
  (attempted, failed)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value)
          unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && attempted > 0) attempted failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* The end-to-end run                                                  *)

let end_to_end inputs setup_times =
  let reports = measure_modes ~layered:false ~slots:(List.length modes) inputs in
  let attempted, failed = check_timed inputs in
  let events = float_of_int (total_events inputs) in
  Printf.printf "setup_s: median %.4f s over %d builds [%s]\n"
    (median setup_times) builds
    (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
  Printf.printf "%-9s %7s %10s %10s %10s %10s %9s %11s\n" "mode" "passes"
    "min_s" "p25_s" "median_s" "p75_s" "Mev/s" "median_Mev/s";
  (* Throughput from the fastest pass.  The host is shared, and other
     tenants' memory traffic slows spells of passes by up to a half.
     Medians follow those spells; the fastest pass of a run spread over
     several children follows only spells that outlast most of the run. *)
  let throughput (name, r) =
    let w = r.walls in
    let mev = ratio events (quantile 0. w) /. 1e6 in
    Printf.printf "%-9s %7d %10.4f %10.4f %10.4f %10.4f %9.3f %11.3f\n" name
      (List.length w) (quantile 0. w) (quantile 0.25 w) (median w)
      (quantile 0.75 w) mev
      (ratio events (median w) /. 1e6);
    (name ^ "_mev_s", mev, "Mev/s")
  in
  let rates = List.map throughput reports in
  let peak_mb = List.fold_left (fun acc (_, r) -> Float.max acc r.peak_mb) 0. reports in
  Printf.printf "peak_heap_mb: %.1f\n" peak_mb;
  print_result ~attempted ~failed
    ((("setup_s", median setup_times, "s") :: rates)
     @ [ ("peak_heap_mb", peak_mb, "MB") ])

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)

let closure_tolerance = 0.05

let write_spans setup_spans reports =
  let dir = ".perfbench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/spans-%s-seed%d.json" dir !workload !seed in
  let oc = open_out path in
  Obs_json.to_channel oc
    (Obs_json.obj
       (("setup", Obs_json.arr [ Span.to_json setup_spans ])
        :: List.map
             (fun (name, r) -> (name, Obs_json.arr (List.map Span.to_json r.spans)))
             reports));
  close_out oc;
  Printf.printf "spans: written to %s\n" path

let layered inputs setup_selfs =
  let setup_spans = !Span.recorded in
  let probe_report = in_child (probe inputs) in
  let reports =
    measure_modes ~layered:true ~slots:(List.length modes + 1) inputs
  in
  let attempted, failed = check_timed inputs in
  let events = float_of_int (total_events inputs) in
  let of_mode mode = List.assoc mode reports in
  let med name selfs = median (List.map (fun t -> Span.get t name) selfs) in
  let layer mode name = med name (of_mode mode).selfs in
  let probed name = med name probe_report.selfs in
  let in_setup name = med name setup_selfs in
  let noted mode name = Span.get (of_mode mode).noted name in
  let stats mode = List.map (fun (r : Driver.result) -> r.Driver.stats) (of_mode mode).results in
  let sum f mode = List.fold_left (fun acc s -> acc +. float_of_int (f s)) 0. (stats mode) in
  let hits rules s = List.fold_left (fun acc r -> acc + Stats.rule_hits s r) 0 rules in
  let same = sum (hits [ "READ SAME EPOCH"; "WRITE SAME EPOCH" ]) "ft" in
  let epoch = sum (hits [ "READ EXCLUSIVE"; "READ SHARED"; "WRITE EXCLUSIVE" ]) "ft" in
  let vc = sum (hits [ "READ SHARE"; "WRITE SHARED" ]) "ft" in
  let peak_words =
    List.fold_left (fun acc (s : Stats.t) -> max acc s.Stats.peak_words) 0 (stats "ft")
  in
  let ft_s = layer "ft" "detector.ft" and replay_s = probed "detector.replay" in
  let parse_s = layer "ft" "trace.parse" in
  let sampled = sum (fun s -> s.Stats.sampled) "sampling" in
  let skipped = sum (fun s -> s.Stats.skipped) "sampling" in
  (* Per mode: the layers' self times (all but the mode's own span) in
     the fastest traced pass against the fastest untraced pass, as the
     end-to-end run uses its fastest pass.  Slow spells of the host move
     single passes by more than the tolerance, pairs of passes included;
     the fastest of several does not. *)
  let closure (mode, r) =
    let root = "mode." ^ mode in
    let total ?(skip = "") t =
      Hashtbl.fold (fun k v acc -> if k = skip then acc else acc +. v) t 0.
    in
    let fastest f = quantile 0. (List.map f r.selfs) in
    let untraced = quantile 0. r.walls in
    (mode, ratio (fastest (total ~skip:root)) untraced, fastest total -. untraced)
  in
  let closures = List.map closure reports in
  Printf.printf "%-9s %14s %14s\n" "closure" "layers/untraced" "overhead_s";
  List.iter
    (fun (m, closure, overhead) -> Printf.printf "%-9s %14.4f %14.5f\n" m closure overhead)
    closures;
  let closure_ok =
    List.for_all
      (fun (_, closure, _) -> Float.abs (closure -. 1.) <= closure_tolerance)
      closures
  in
  Printf.printf "closure check (layer self times within %.0f%% of the untraced pass): %s\n"
    (100. *. closure_tolerance) (if closure_ok then "ok" else "FAIL");
  let overhead = List.fold_left (fun acc (_, _, o) -> acc +. o) 0. closures in
  write_spans setup_spans (("probe", probe_report) :: reports);
  let metrics =
    [ ("trace.parse_s", parse_s, "s");
      ("trace.parse_ns_per_event", 1e9 *. ratio parse_s events, "ns/event");
      ("trace.validate_s", probed "trace.validate", "s");
      ("trace.serialize_s", in_setup "trace.serialize", "s");
      ("runtime.schedule_s", in_setup "runtime.schedule", "s");
      ("trace_gen.generate_s", in_setup "trace_gen.generate", "s");
      ("static.analyze_s", layer "elim" "static.analyze", "s");
      ("static.certified_frac",
       ratio (noted "elim" "static.certified") (noted "elim" "static.accesses"),
       "frac");
      ("detector.ft_s", ft_s, "s");
      ("detector.ft_ns_per_event", 1e9 *. ratio ft_s events, "ns/event");
      ("detector.replay_s", replay_s, "s");
      ("detector.empty_s", probed "detector.empty", "s");
      ("detector.ft_slowdown", ratio ft_s replay_s, "x");
      ("detector.eliminated_frac",
       ratio (sum (fun s -> s.Stats.eliminated) "elim") events, "frac");
      ("core.same_epoch_hits", same, "count");
      ("core.epoch_hits", epoch, "count");
      ("core.vc_hits", vc, "count");
      ("core.fast_path_frac", ratio (same +. epoch) (same +. epoch +. vc), "frac");
      ("core.vc_ops", sum (fun s -> s.Stats.vc_ops) "ft", "count");
      ("core.epoch_ops", sum (fun s -> s.Stats.epoch_ops) "ft", "count");
      ("core.vc_allocs", sum (fun s -> s.Stats.vc_allocs) "ft", "count");
      ("core.peak_words", float_of_int peak_words, "words");
      ("sampling.s", layer "sampling" "sampling.run", "s");
      ("sampling.sampled", sampled, "count");
      ("sampling.skipped", skipped, "count");
      ("sampling.sampled_frac", ratio sampled (sampled +. skipped), "frac");
      ("parallel.prefix_s", layer "steal" "parallel.prefix", "s");
      ("parallel.route_s", probed "parallel.route", "s");
      ("parallel.timeline_s", probed "parallel.timeline", "s");
      ("parallel.items_s", layer "steal" "parallel.items", "s");
      ("parallel.timeline_checkpoints",
       Span.get probe_report.noted "timeline.checkpoints", "count");
      ("parallel.timeline_snapshots",
       Span.get probe_report.noted "timeline.snapshots", "count");
      ("parallel.timeline_vc_ops", Span.get probe_report.noted "timeline.vc_ops", "count");
      ("obs.hooks_s", layer "obs" "obs.run" -. ft_s, "s");
      ("obs.export_s", layer "obs" "obs.export", "s");
      ("obs.export_bytes", noted "obs" "obs.export_bytes", "bytes") ]
    @ List.map
        (fun (m, r) -> (Printf.sprintf "gc.%s_alloc_mb" m, median r.allocs, "MB"))
        reports
    @ ("tracing.overhead_s", overhead, "s")
      :: List.map (fun (m, closure, _) -> ("tracing.closure_" ^ m, closure, "ratio")) closures
  in
  List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.6g %s\n" name v unit) metrics;
  print_result ~attempted ~failed metrics

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !workload = "" then begin
    prerr_endline usage;
    exit 2
  end;
  Printf.printf "host: %s recommended_domains=%d ocaml=%s\n" !host
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let inputs, setup_times, setup_selfs = setup () in
  print_inputs inputs;
  if !traced then layered inputs setup_selfs else end_to_end inputs setup_times
