(* ftrace — command-line front end for the FastTrack reproduction.

   Traces travel as text files, one event per line in the paper's
   notation (rd(1,x3), acq(0,m2), fork(0,1), barrier(1,2,3), ...), so
   detectors can be exercised on hand-written examples as well as on
   synthesized workloads. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* A trace source is either a file in the textual format or the name
   of a built-in workload model. *)
let load_trace spec =
  match Workloads.find spec with
  | Some w -> Ok (Workload.trace w)
  | None ->
    if Sys.file_exists spec then
      match Trace.of_string (read_file spec) with
      | Ok tr -> Ok tr
      | Error msg -> Error (Printf.sprintf "%s: %s" spec msg)
    else
      Error
        (Printf.sprintf
           "%s: neither a file nor a workload (try `ftrace workloads')"
           spec)

(* A trace file is an arbitrary event log: refuse an infeasible one
   (Section 2.1) before any analysis, naming its first violation.
   Workload traces are scheduled from a program and feasible by
   construction, so they skip the check. *)
let load_feasible spec =
  match load_trace spec with
  | Ok tr when Workloads.find spec = None -> (
    match Validity.check tr with
    | [] -> Ok tr
    | v :: _ -> Error (Format.asprintf "%s: %a" spec Validity.pp_violation v))
  | loaded -> loaded

let detectors =
  [ ("empty", (module Empty_tool : Detector.S));
    ("eraser", (module Eraser));
    ("multirace", (module Multi_race));
    ("goldilocks", (module Goldilocks));
    ("basicvc", (module Basic_vc));
    ("djit", (module Djit_plus));
    ("fasttrack", (module Fasttrack));
    ("sampling", (module Sampling_ft));
    ("sampling-period", (module Sampling_period)) ]

(* ------------------------------------------------------------------ *)
(* common arguments                                                   *)

let trace_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE"
         ~doc:"Trace file (one event per line) or the name of a built-in \
               workload model (see $(b,ftrace workloads)).")

let tool_arg =
  let names = String.concat ", " (List.map fst detectors) in
  Arg.(value & opt string "fasttrack"
       & info [ "t"; "tool"; "detector" ] ~docv:"TOOL"
           ~doc:(Printf.sprintf "Detector to run: %s." names))

let granularity_arg =
  let granularity =
    Arg.enum
      [ ("fine", Shadow.Fine); ("coarse", Shadow.Coarse);
        ("adaptive", Shadow.Adaptive) ]
  in
  Arg.(value & opt granularity Shadow.Fine
       & info [ "g"; "granularity" ] ~docv:"G"
           ~doc:"Analysis granularity: $(b,fine) (per field), $(b,coarse) \
                 (per object) or $(b,adaptive) (coarse until a location \
                 warns, then fine; Section 5.1).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"PRNG seed (scheduling and generation are deterministic \
               given the seed).")

let scale_arg =
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N"
         ~doc:"Workload scale factor (trace length grows linearly).")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Shard the analysis by variable across $(docv) analysis \
                 domains (1 = sequential; 0 = one per available core).  \
                 Clock-sharing detectors use a work-stealing item queue \
                 over a shared sync timeline; others fall back to the \
                 static broadcast plan.  Warnings are merged \
                 deterministically and are identical to a sequential \
                 run's.  Values above the runtime's recommended domain \
                 count are accepted but warned about (domains would \
                 contend for cores).")

let config_of granularity = { Config.default with granularity }

(* Sampling-tier policy knobs (only the sampling detectors read them;
   the policy is a pure function of (sample-seed, variable, access
   ordinal), so a run is reproducible from its flags alone). *)
let rate_arg =
  Arg.(value & opt float Config.default_sampling.Config.rate
       & info [ "rate" ] ~docv:"R"
           ~doc:"Sampling detectors: fraction of per-variable accesses \
                 analyzed (0.0-1.0; 1.0 reproduces FastTrack exactly).")

let budget_arg =
  Arg.(value & opt int Config.default_sampling.Config.budget
       & info [ "budget" ] ~docv:"N"
           ~doc:"Sampling detectors: always analyze the first $(docv) \
                 accesses to each variable before the coin applies.")

let sample_seed_arg =
  Arg.(value & opt int Config.default_sampling.Config.seed
       & info [ "sample-seed" ] ~docv:"SEED"
           ~doc:"Sampling detectors: seed of the deterministic sampling \
                 policy (same seed, same warnings, any --jobs).")

let sampling_term =
  Term.(
    const (fun rate budget seed -> { Config.rate; budget; seed })
    $ rate_arg $ budget_arg $ sample_seed_arg)

(* The static analysis (lib/static) runs on the *program*, which only
   workload sources carry — a trace file is a post-hoc event log with
   no lock-scoping or thread-structure left to analyze. *)
let static_summary spec =
  match Workloads.find spec with
  | Some w ->
    Ok
      (Static_cache.analyze ~workload:w.Workload.name ~scale:1 (fun () ->
           w.Workload.program ~scale:1))
  | None ->
    Error
      (Printf.sprintf
         "%s: the static analysis needs a workload source (it runs on \
          the program, which trace files do not carry; try `ftrace \
          workloads')"
         spec)

(* Shadow granularity decides which eliminator is sound: per-field
   certificates do not compose under a shared per-object shadow word,
   so coarse *and* adaptive (which starts coarse) analyses get the
   whole-object eliminator. *)
let elim_granularity = function
  | Shadow.Fine -> Var.Fine
  | Shadow.Coarse | Shadow.Adaptive -> Var.Coarse

(* ------------------------------------------------------------------ *)
(* generate                                                           *)

let generate workload_name random seed scale length threads vars locks out =
  let trace =
    match (workload_name, random) with
    | Some name, false -> (
      match Workloads.find name with
      | Some w -> Ok (Workload.trace ~seed ~scale w)
      | None ->
        Error
          (Printf.sprintf "unknown workload %S (try `ftrace workloads')"
             name))
    | None, true ->
      Ok
        (Trace_gen.generate ~seed
           { Trace_gen.default with length; threads; vars; locks })
    | Some _, true -> Error "--workload and --random are mutually exclusive"
    | None, false -> Error "need --workload NAME or --random"
  in
  match trace with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok tr -> (
    let text = Trace.to_string tr in
    match out with
    | Some path ->
      write_file path text;
      Printf.printf "wrote %d events to %s\n" (Trace.length tr) path;
      0
    | None ->
      print_string text;
      0)

let generate_cmd =
  let workload =
    Arg.(value & opt (some string) None
         & info [ "w"; "workload" ] ~docv:"NAME"
             ~doc:"Generate the named benchmark workload model.")
  in
  let random =
    Arg.(value & flag
         & info [ "random" ]
             ~doc:"Generate a random feasible trace instead of a workload.")
  in
  let length =
    Arg.(value & opt int 200 & info [ "length" ] ~docv:"N"
           ~doc:"Approximate number of events (with --random).")
  in
  let threads =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N"
           ~doc:"Thread count (with --random).")
  in
  let vars =
    Arg.(value & opt int 8 & info [ "vars" ] ~docv:"N"
           ~doc:"Variable count (with --random).")
  in
  let locks =
    Arg.(value & opt int 3 & info [ "locks" ] ~docv:"N"
           ~doc:"Lock count (with --random).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the trace here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize an execution trace")
    Term.(
      const generate $ workload $ random $ seed_arg $ scale_arg $ length
      $ threads $ vars $ locks $ out)

(* ------------------------------------------------------------------ *)
(* analyze                                                            *)

(* The --verbose-stats panel: counters, rule histogram, per-shard
   load table, GC cross-check, and warnings re-rendered with their
   rule-histogram context and shard provenance. *)
let print_verbose_panel ~jobs ~obs ~prof (r : Driver.result) =
  print_endline "-- counters --";
  let t =
    Table.create ~columns:[ ("Metric", Table.Left); ("Value", Table.Right) ]
  in
  List.iter
    (fun (k, v) -> Table.add_row t [ k; Table.fmt_int v ])
    (Stats.fields_alist r.stats);
  Table.add_separator t;
  Table.add_row t [ "warnings"; string_of_int (List.length r.warnings) ];
  Table.add_row t [ "cpu (ms)"; Printf.sprintf "%.2f" (r.cpu *. 1000.) ];
  Table.add_row t [ "wall (ms)"; Printf.sprintf "%.2f" (r.wall *. 1000.) ];
  Table.add_row t
    [ "throughput (ev/s)";
      (if r.wall > 0. then
         Table.fmt_int
           (int_of_float (float_of_int r.stats.Stats.events /. r.wall))
       else "-") ];
  if jobs > 1 then
    Table.add_row t [ "imbalance"; Printf.sprintf "%.2f" r.imbalance ];
  Table.print t;
  (match Stats.rules_alist r.stats with
  | [] -> ()
  | rules ->
    print_endline "-- rule histogram --";
    let t =
      Table.create
        ~columns:
          [ ("Rule", Table.Left); ("Hits", Table.Right);
            ("Share%", Table.Right) ]
    in
    let total = List.fold_left (fun a (_, n) -> a + n) 0 rules in
    List.iter
      (fun (rule, n) ->
        Table.add_row t
          [ rule; Table.fmt_int n;
            Printf.sprintf "%.1f"
              (100. *. float_of_int n /. float_of_int (max total 1)) ])
      rules;
    Table.print t);
  if Array.length r.shards > 0 then begin
    print_endline
      (match r.plan_kind with
      | Shard.Static -> "-- shards --"
      | Shard.Stealing -> "-- workers (stealing plan) --");
    let t =
      Table.create
        ~columns:
          [ ((match r.plan_kind with
             | Shard.Static -> "Shard"
             | Shard.Stealing -> "Worker"),
             Table.Right);
            ("Accesses", Table.Right);
            ("Broadcast", Table.Right); ("Wall(ms)", Table.Right);
            ("Warnings", Table.Right) ]
    in
    Array.iter
      (fun (si : Driver.shard_info) ->
        Table.add_row t
          [ string_of_int si.Driver.shard_id;
            Table.fmt_int si.Driver.shard_accesses;
            Table.fmt_int si.Driver.shard_syncs;
            Printf.sprintf "%.2f" (si.Driver.shard_wall *. 1000.);
            string_of_int si.Driver.shard_warnings ])
      r.shards;
    Table.print t
  end;
  (match Obs.gc obs with
  | Some g -> (
    match List.rev (Obs_gc.samples g) with
    | last :: _ as rev ->
      Printf.printf
        "gc: %d sample(s); heap %s words, live %s — stats peak %s \
         shadow words\n"
        (List.length rev)
        (Table.fmt_int last.Obs_gc.heap_words)
        (if last.Obs_gc.full then
           Table.fmt_int last.Obs_gc.live_words ^ " words"
         else "n/a (--heap-walk)")
        (Table.fmt_int r.stats.Stats.peak_words)
    | [] -> ())
  | None -> ());
  if Obs_prof.is_enabled prof then begin
    print_endline "-- profile --";
    List.iter print_endline (Obs_prof.render ~tool:r.tool prof)
  end;
  match r.warnings with
  | [] -> ()
  | warnings ->
    print_endline "-- warnings (with context) --";
    let rules = Stats.rules_alist r.stats in
    List.iter
      (fun w ->
        (* provenance: shard id (static) or work-item slot (stealing)
           that analyzed the variable *)
        let shard =
          if jobs > 1 then
            Some
              (Shard.shard_of_var
                 ~jobs:
                   (match r.plan_kind with
                   | Shard.Static -> jobs
                   | Shard.Stealing -> r.slots)
                 w.Warning.x)
          else None
        in
        Format.printf "  @[<h>%a@]@."
          (fun ppf w -> Warning.pp_context ppf ?shard ~rules w)
          w)
      warnings

(* --prefilter: the Section 5.2 composition pipeline — the prefilter
   consumes the full event stream and forwards sync events plus only
   the accesses it cannot prove race-free to a fresh downstream
   detector.  Sequential by construction (the prefilter's own analysis
   is a serial pass), so the parallel/observability flags don't
   apply. *)
let analyze_prefiltered ~granularity ~fail_on_race pf d tr path =
  let kind =
    match pf with
    | `None_ -> Ok Filter.None_
    | `Thread_local -> Ok Filter.Thread_local
    | `Eraser -> Ok Filter.Eraser_pre
    | `Djit -> Ok Filter.Djit_pre
    | `Fasttrack -> Ok Filter.Fasttrack_pre
    | `Static ->
      Result.map
        (fun s ->
          Filter.Static_pre
            (Static.eliminator ~granularity:(elim_granularity granularity) s))
        (static_summary path)
  in
  match kind with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok kind ->
    let r =
      Filter.run_detector ~config:(config_of granularity) kind d tr
    in
    let accesses = r.Filter.kept + r.Filter.dropped in
    Printf.printf
      "%s [prefilter %s]: %d events, kept %d / dropped %d of %d \
       accesses (%.1f%%), %d warning(s), %.2f ms\n"
      r.Filter.tool (Filter.kind_name kind) (Trace.length tr)
      r.Filter.kept r.Filter.dropped accesses
      (100. *. float_of_int r.Filter.dropped /. float_of_int (max 1 accesses))
      (List.length r.Filter.warnings)
      (r.Filter.wall *. 1000.);
    List.iter
      (fun w -> Printf.printf "  %s\n" (Warning.to_string w))
      r.Filter.warnings;
    if fail_on_race then if r.Filter.warnings = [] then 0 else 1
    else if r.Filter.warnings = [] then 0
    else 2

(* A sampling policy the coin cannot honour is an error, not something
   to clamp into a different policy.  Only the sampling detectors read
   the policy, so only they check it. *)
let sampling_flag_error tool (s : Config.sampling) =
  if not (List.mem (String.lowercase_ascii tool)
            [ "sampling"; "sampling-period" ])
  then None
  else if not (s.Config.rate >= 0. && s.Config.rate <= 1.) then
    Some
      (Printf.sprintf "--rate must be within [0, 1], got %g" s.Config.rate)
  else if s.Config.budget < 0 then
    Some (Printf.sprintf "--budget must be >= 0, got %d" s.Config.budget)
  else None

(* Several flags can write to stdout via "-".  Two NDJSON/JSON streams
   interleaved on one descriptor are garbage for every consumer, so
   the collision is an error, not a surprise. *)
let stdout_sink_collision ~metrics ~report ~trace_out ~live ~profile =
  let sinks =
    List.filter_map
      (fun (flag, v) -> if v = Some "-" then Some flag else None)
      [ ("--metrics", metrics); ("--report", report);
        ("--trace-out", trace_out); ("--live", live);
        ("--profile", profile) ]
  in
  if List.length sinks > 1 then Some (String.concat " and " sinks)
  else None

let analyze path tool granularity sampling jobs prefilter static_elim
    show_stats verbose_stats metrics heap_walk explain_race report trace_out
    live live_period profile fail_on_race =
  match
    stdout_sink_collision ~metrics ~report ~trace_out ~live ~profile
  with
  | Some clash ->
    Printf.eprintf
      "ftrace: %s would interleave on stdout; write at most one of \
       them to `-'\n"
      clash;
    1
  | None -> (
  match sampling_flag_error tool sampling with
  | Some msg ->
    Printf.eprintf "ftrace: %s\n" msg;
    1
  | None -> (
  match load_feasible path with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok tr -> (
    match List.assoc_opt (String.lowercase_ascii tool) detectors with
    | None ->
      Printf.eprintf "unknown tool %S\n" tool;
      1
    | Some d when prefilter <> None ->
      if
        jobs <> 1 || verbose_stats || metrics <> None || explain_race
        || report <> None || trace_out <> None || live <> None
        || static_elim || profile <> None
      then begin
        prerr_endline
          "ftrace: --prefilter runs the sequential composition pipeline \
           and cannot be combined with --jobs, --static-elim, \
           --verbose-stats, --metrics, --explain, --report, \
           --trace-out, --live or --profile";
        1
      end
      else
        analyze_prefiltered ~granularity ~fail_on_race
          (Option.get prefilter) d tr path
    | Some d ->
      (* Resolve --static-elim before anything runs: it needs the
         workload's program, and an unknown source should fail fast. *)
      let static_pred =
        if static_elim then
          match static_summary path with
          | Error msg -> Error msg
          | Ok s ->
            Ok (Some (Static.eliminator ~granularity:(elim_granularity granularity) s))
        else Ok None
      in
      match static_pred with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok static_pred ->
      (* Observability is off unless a flag needs it, so the default
         analyze path stays uninstrumented (and its warnings are
         asserted identical either way in test/test_obs.ml). *)
      let obs =
        if verbose_stats || metrics <> None || trace_out <> None then
          Obs.create ~gc_every:8192 ~heap_walk ()
        else Obs.disabled
      in
      (* The flight recorder rides only when a report will read it:
         --explain / --report.  Same discipline as obs — the default
         path keeps the recorder disabled (one branch per event). *)
      let recorder =
        if explain_race || report <> None then Obs_recorder.create ()
        else Obs_recorder.disabled
      in
      (* The shadow-state profiler rides when --profile asks for the
         ftrace.prof/2 export or --verbose-stats wants the panel; off,
         the detectors pay one cached-bool branch per access. *)
      let prof =
        if profile <> None || verbose_stats then Obs_prof.create ()
        else Obs_prof.disabled
      in
      let config =
        Config.with_prof prof
          (Config.with_recorder recorder
             (Config.with_obs obs
                (Config.with_sampling sampling (config_of granularity))))
      in
      let config =
        match static_pred with
        | Some skip -> Config.with_static_elim skip config
        | None -> config
      in
      let jobs = if jobs = 0 then Driver.default_jobs () else max 1 jobs in
      (* The live telemetry bus streams in-flight snapshots while the
         run is still going (--metrics is post-hoc); the CLI owns the
         sink's lifecycle, the driver only feeds the bus.  The header's
         total is what the chosen plan's stream will count. *)
      let live_r =
        match live with
        | None -> Ok Obs_live.disabled
        | Some spec -> (
          match Obs_live.open_sink spec with
          | Error msg -> Error (Printf.sprintf "--live %s" msg)
          | Ok (sink, owns_sink) ->
            let parallel =
              if jobs > 1 then Some (Driver.parallel_plan ~config d, jobs)
              else None
            in
            Ok
              (Obs_live.create ~period:live_period
                 ~total:(Driver.stream_events ?parallel tr) ~source:path
                 ~tool:(String.lowercase_ascii tool) ~sink ~owns_sink ()))
      in
      match live_r with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok live ->
      let config = Config.with_live live config in
      (* Warn (don't clamp): oversubscription is legal — and the only
         way to exercise the parallel plans on a small machine — but
         it will not be faster, so say so once. *)
      let recommended = Driver.default_jobs () in
      if jobs > recommended then
        Printf.eprintf
          "ftrace: warning: --jobs %d exceeds this machine's %d \
           recommended domain(s); the extra domains will contend for \
           cores\n%!"
          jobs recommended;
      let result =
        if jobs > 1 then Driver.run_parallel ~config ~jobs d tr
        else Driver.run ~config d tr
      in
      (* The driver already emitted the stream's final record. *)
      Obs_live.close live;
      let mode =
        if jobs > 1 then
          Printf.sprintf " [%d %s, %s plan]" jobs
            (match result.Driver.plan_kind with
            | Shard.Static -> "shards"
            | Shard.Stealing -> "workers")
            (Shard.kind_to_string result.Driver.plan_kind)
        else ""
      in
      (* cpu for the sequential driver, wall for the parallel one —
         what the deprecated [elapsed] alias used to smuggle in. *)
      Printf.printf "%s%s: %d events, %d warning(s), %.2f ms\n" result.tool
        mode (Trace.length tr)
        (List.length result.warnings)
        ((if jobs > 1 then result.wall else result.cpu) *. 1000.);
      List.iter
        (fun w -> Printf.printf "  %s\n" (Warning.to_string w))
        result.warnings;
      if static_elim then begin
        let n = result.stats.Stats.eliminated in
        Printf.printf
          "static elimination: skipped %d certified access(es) (%.1f%% \
           of %d events)\n"
          n
          (100. *. float_of_int n /. float_of_int (max 1 (Trace.length tr)))
          (Trace.length tr)
      end;
      if jobs > 1 then
        Printf.printf "%s: imbalance %.2f, accesses [%s]\n"
          (match result.Driver.plan_kind with
          | Shard.Static -> "shards"
          | Shard.Stealing -> "workers")
          result.Driver.imbalance
          (String.concat "; "
             (Array.to_list
                (Array.map
                   (fun (si : Driver.shard_info) ->
                     Printf.sprintf "%s%d=%d"
                       (match result.Driver.plan_kind with
                       | Shard.Static -> "s"
                       | Shard.Stealing -> "w")
                       si.Driver.shard_id si.Driver.shard_accesses)
                   result.Driver.shards)));
      if show_stats then Format.printf "%a@." Stats.pp result.stats;
      if verbose_stats then print_verbose_panel ~jobs ~obs ~prof result;
      Option.iter
        (fun file ->
          Driver.write_metrics ~source:path ~obs ~path:file result;
          if file <> "-" then Printf.printf "wrote metrics to %s\n" file)
        metrics;
      (* The ftrace.prof/2 export: the run's merged profile (cells,
         census, ranking, timing) plus the result's stats counters for
         cross-checking. *)
      Option.iter
        (fun file ->
          Obs_prof.write_file ~path:file ~source:path
            ~tool:result.Driver.tool ~wall:result.Driver.wall
            ~stats:(Stats.fields_alist result.Driver.stats) prof;
          if file <> "-" then Printf.printf "wrote profile to %s\n" file)
        profile;
      (* Enriched report: reconstruct the happens-before witnesses'
         first-access indices, sync paths and replayable slices (cold
         post-pass, only when asked). *)
      if explain_race || report <> None then begin
        let rep = Report.build ~config ~source:path ~trace:tr result in
        if explain_race then Format.printf "%a@." Report.pp_explain rep;
        Option.iter
          (fun file ->
            Report.write_file ~path:file rep;
            if file <> "-" then Printf.printf "wrote report to %s\n" file)
          report
      end;
      Option.iter
        (fun file ->
          Obs_traceevent.write_file ~path:file ~prof obs;
          if file <> "-" then Printf.printf "wrote trace events to %s\n" file)
        trace_out;
      if fail_on_race then if result.warnings = [] then 0 else 1
      else if result.warnings = [] then 0
      else 2)))

let analyze_cmd =
  let prefilter =
    let pf_conv =
      Arg.enum
        [ ("none", `None_); ("thread_local", `Thread_local);
          ("eraser", `Eraser); ("djit", `Djit); ("fasttrack", `Fasttrack);
          ("static", `Static) ]
    in
    Arg.(value & opt (some pf_conv) None
         & info [ "prefilter" ] ~docv:"P"
             ~doc:"Compose the analysis (Section 5.2): stream the trace \
                   through a race-predicate prefilter that drops accesses \
                   it can prove race-free, feeding the survivors (plus \
                   every sync event) to the $(b,--tool) detector.  One of \
                   $(b,none), $(b,thread_local), $(b,eraser), $(b,djit), \
                   $(b,fasttrack) or $(b,static) (the ahead-of-run \
                   certificate filter — sound, needs a workload source).  \
                   Prints kept/dropped access counts.")
  in
  let static_elim =
    Arg.(value & flag
         & info [ "static-elim" ]
             ~doc:"Run the ahead-of-run static analysis ($(b,ftrace \
                   lint)) on the workload's program first and skip the \
                   dynamic checks whose variables it certifies race-free \
                   — sound: warnings and witnesses are identical to an \
                   unfiltered run, sequential or parallel.  Needs a \
                   workload source (trace files carry no program).")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Also print instrumentation statistics (VC allocations, \
                   rule frequencies, ...).")
  in
  let verbose_stats =
    Arg.(value & flag
         & info [ "verbose-stats" ]
             ~doc:"Print the full observability panel: counters, rule \
                   histogram, per-shard load table, GC cross-check, and \
                   warnings with rule/shard context.  Enables the \
                   observability layer for this run.")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Enable the observability layer and write its JSON \
                   document (schema $(b,ftrace.obs/2): span timeline \
                   with per-shard durations, GC samples, run summary \
                   with stats and imbalance) to $(docv).")
  in
  let heap_walk =
    Arg.(value & flag
         & info [ "heap-walk" ]
             ~doc:"End the run with a full GC heap walk ($(b,Gc.stat)) so \
                   the last $(b,gc) sample of $(b,--metrics) (and the \
                   $(b,--verbose-stats) panel) carries $(b,live_words), \
                   the GC's own bound on the shadow memory of Table 3.  \
                   Off by default: the walk finishes a major cycle and \
                   can cost more than the analysis.  Takes effect with \
                   $(b,--metrics), $(b,--verbose-stats) or \
                   $(b,--trace-out).")
  in
  let explain_race =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"After the run, print a happens-before witness for \
                   each warning: both access epochs with the threads' \
                   vector clocks at the moment the race fired, the \
                   failing clock component, the sync events between the \
                   accesses and the flight-recorder history of the racy \
                   location.  Enables the flight recorder for this run.")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Write the enriched race report (schema \
                   $(b,ftrace.report/1): witnesses, sync paths, \
                   replayable slices, recorder history) as JSON to \
                   $(docv); $(b,-) writes to stdout.  Enables the \
                   flight recorder for this run.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the run's span timeline (analysis phases, \
                   per-shard lifetimes, race instants) as Chrome \
                   trace-event JSON to $(docv) — load it in Perfetto or \
                   chrome://tracing; $(b,-) writes to stdout.  Enables \
                   the observability layer for this run.")
  in
  let live =
    Arg.(value & opt (some string) None
         & info [ "live" ] ~docv:"SINK"
             ~doc:"Stream live telemetry while the run is in flight: \
                   delta-encoded NDJSON records (schema \
                   $(b,ftrace.live/1): progress, events/s, rule hits, \
                   epoch-fast-path share, per-worker load, GC heap) to \
                   $(docv) — a file path, $(b,-) for stdout, or \
                   $(b,fd:N) for an inherited descriptor.  Watch it \
                   with $(b,ftrace watch).  The final record carries \
                   the run's exact cumulative counters (equal to the \
                   $(b,--metrics) export).  Off by default; the hot \
                   loop is unchanged when off.")
  in
  let live_period =
    Arg.(value & opt float 0.05
         & info [ "live-period" ] ~docv:"SECONDS"
             ~doc:"Tick period of the $(b,--live) stream (default \
                   0.05s): at most one record is emitted per period.")
  in
  let profile =
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"FILE"
             ~doc:"Enable the shadow-state profiler and write its JSON \
                   document (schema $(b,ftrace.prof/2): per-variable \
                   cost attribution with Figure 5 rule and cost-class \
                   counts, shadow census with inflation lifecycle, \
                   exact top-variable table, sampled timing buckets) to \
                   $(docv); $(b,-) writes to stdout.  See also \
                   $(b,ftrace profile) for the human panel.")
  in
  let fail_on_race =
    Arg.(value & flag
         & info [ "fail-on-race" ]
             ~doc:"CI gating: exit 1 if any warning was reported, 0 \
                   otherwise (instead of the default exit code 2 on \
                   races).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run one race detector over a trace (exit code 2 if races \
             were found; with $(b,--fail-on-race), exit code 1)")
    Term.(
      const analyze $ trace_arg $ tool_arg $ granularity_arg
      $ sampling_term $ jobs_arg
      $ prefilter $ static_elim $ stats $ verbose_stats $ metrics
      $ heap_walk $ explain_race $ report $ trace_out $ live $ live_period
      $ profile $ fail_on_race)

(* ------------------------------------------------------------------ *)
(* compare                                                            *)

let compare_tools path granularity =
  match load_trace path with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok tr ->
    let t =
      Table.create
        ~columns:
          [ ("Tool", Table.Left); ("Warnings", Table.Right);
            ("Time(ms)", Table.Right); ("VC allocs", Table.Right);
            ("VC ops", Table.Right) ]
    in
    List.iter
      (fun (_, d) ->
        let r = Driver.run ~config:(config_of granularity) d tr in
        Table.add_row t
          [ r.tool;
            string_of_int (List.length r.warnings);
            Printf.sprintf "%.2f" (r.cpu *. 1000.);
            Table.fmt_int r.stats.Stats.vc_allocs;
            Table.fmt_int r.stats.Stats.vc_ops ])
      detectors;
    Table.print t;
    let races = Happens_before.first_races tr in
    Printf.printf "oracle: %d racy variable(s)\n" (List.length races);
    List.iter
      (fun r -> Format.printf "  %a@." Happens_before.pp_race r)
      races;
    0

let compare_cmd =
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run every detector and the happens-before oracle over a trace")
    Term.(const compare_tools $ trace_arg $ granularity_arg)

(* ------------------------------------------------------------------ *)
(* check                                                              *)

let check path =
  match load_trace path with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok tr -> (
    match Validity.check tr with
    | [] ->
      Printf.printf "%s: feasible (%d events, %d threads)\n" path
        (Trace.length tr) (Trace.thread_count tr);
      0
    | violations ->
      List.iter
        (fun v -> Format.printf "%a@." Validity.pp_violation v)
        violations;
      1)

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check the Section 2.1 feasibility constraints of a trace")
    Term.(const check $ trace_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                            *)

(* Show the first race on a variable with enough surrounding context
   to understand (the absence of) the synchronization between the two
   accesses. *)
let explain path var_spec =
  match load_trace path with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok tr -> (
    let races = Happens_before.first_races tr in
    let race =
      match var_spec with
      | None -> (
        match races with
        | r :: _ -> Ok r
        | [] -> Error "the trace is race-free")
      | Some spec -> (
        match
          List.find_opt
            (fun (r : Happens_before.race) ->
              String.equal (Var.to_string r.x) spec)
            races
        with
        | Some r -> Ok r
        | None ->
          Error
            (Printf.sprintf "no race on %s (racy variables: %s)" spec
               (String.concat ", "
                  (List.map
                     (fun (r : Happens_before.race) -> Var.to_string r.x)
                     races))))
    in
    match race with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok r ->
      Format.printf "%a@." Happens_before.pp_race r;
      let t1 = r.first.tid and t2 = r.second.tid in
      Printf.printf
        "events of %s and %s between the two accesses (no release by %s \
         is ever acquired by %s along this span):\n"
        (Tid.to_string t1) (Tid.to_string t2) (Tid.to_string t1)
        (Tid.to_string t2);
      Trace.iteri
        (fun i e ->
          if i >= r.first.index && i <= r.second.index then begin
            let relevant =
              match Event.tid e with
              | Some t -> Tid.equal t t1 || Tid.equal t t2
              | None -> true (* barriers involve everyone *)
            in
            if relevant then begin
              let marker =
                if i = r.first.index then " <-- first access"
                else if i = r.second.index then " <-- second access"
                else ""
              in
              Printf.printf "  [%4d] %s%s\n" i (Event.to_string e) marker
            end
          end)
        tr;
      0)

let explain_cmd =
  let var =
    Arg.(value & opt (some string) None
         & info [ "var" ] ~docv:"VAR"
             ~doc:"Explain the race on this variable (e.g. $(b,x3) or \
                   $(b,x3.2)); defaults to the trace's first race.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show a race's two accesses and the events between them")
    Term.(const explain $ trace_arg $ var)

(* ------------------------------------------------------------------ *)
(* stats                                                              *)

let mix path =
  match load_trace path with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok tr ->
    let reads, writes, other = Trace.counts tr in
    let total = max (Trace.length tr) 1 in
    let pct n = 100. *. float_of_int n /. float_of_int total in
    Printf.printf
      "%d events: %.1f%% reads, %.1f%% writes, %.1f%% other\n"
      (Trace.length tr) (pct reads) (pct writes) (pct other);
    let r = Driver.run (module Fasttrack) tr in
    print_endline "FastTrack rule frequencies:";
    List.iter
      (fun (rule, hits) -> Printf.printf "  %-18s %8d\n" rule hits)
      (Stats.rules_alist r.stats);
    Printf.printf
      "vector clocks allocated: %d, O(n) VC operations: %d (%d skipped as \
       no-ops)\n"
      r.stats.Stats.vc_allocs r.stats.Stats.vc_ops r.stats.Stats.vc_ops_skipped;
    0

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Print a trace's operation mix and FastTrack's rule \
             frequencies (the Figure 2 measurements)")
    Term.(const mix $ trace_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                            *)

(* Run one detector with the shadow-state profiler on and print the
   human panel: totals and the O(1)-path share, per-rule attribution
   with Figure 5 cost classes, the shadow census (epoch-only vs
   inflated, approximate bytes), sampled timing, and the top variables
   by attributed ops.  [--json] additionally writes the machine
   document (same schema as analyze --profile). *)
let profile_run path tool granularity jobs stride top json =
  match load_trace path with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok tr -> (
    match List.assoc_opt (String.lowercase_ascii tool) detectors with
    | None ->
      Printf.eprintf "unknown tool %S\n" tool;
      1
    | Some d ->
      let prof = Obs_prof.create ~sample_stride:stride () in
      let config = Config.with_prof prof (config_of granularity) in
      let jobs = if jobs = 0 then Driver.default_jobs () else max 1 jobs in
      let result =
        if jobs > 1 then Driver.run_parallel ~config ~jobs d tr
        else Driver.run ~config d tr
      in
      List.iter print_endline
        (Obs_prof.render ~top ~source:path ~tool:result.Driver.tool prof);
      if result.Driver.warnings <> [] then begin
        Printf.printf "%d warning(s):\n"
          (List.length result.Driver.warnings);
        List.iter
          (fun w -> Printf.printf "  %s\n" (Warning.to_string w))
          result.Driver.warnings
      end;
      Option.iter
        (fun file ->
          Obs_prof.write_file ~path:file ~source:path
            ~tool:result.Driver.tool ~wall:result.Driver.wall
            ~stats:(Stats.fields_alist result.Driver.stats) prof;
          if file <> "-" then Printf.printf "wrote profile to %s\n" file)
        json;
      if result.Driver.warnings = [] then 0 else 2)

let profile_cmd =
  let stride =
    Arg.(value & opt int 512
         & info [ "stride" ] ~docv:"N"
             ~doc:"Timing sample period: one access in $(docv) is \
                   bracketed with the monotonic clock (default 512).")
  in
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows of the hot-variable table (default 10).")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the $(b,ftrace.prof/2) JSON document to \
                   $(docv); $(b,-) writes to stdout.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile a detector run: per-variable cost attribution \
             (Figure 5 rules and cost classes), shadow-state census \
             with the read-VC inflation lifecycle, heavy-hitter \
             ranking and sampled access timing.  Exit code 2 if races \
             were found, mirroring $(b,analyze)")
    Term.(
      const profile_run $ trace_arg $ tool_arg $ granularity_arg
      $ jobs_arg $ stride $ top $ json)

(* ------------------------------------------------------------------ *)
(* watch                                                              *)

(* Tail an ftrace.live/1 NDJSON stream and render a self-updating
   terminal panel (TTY) or one status line per record (pipe).  The
   reader splits lines itself on a raw descriptor, so a record the
   producer has only half-written is held back until its newline
   arrives — never fed to the parser torn. *)
let watch path once interval width =
  let fd_r =
    if path = "-" then Ok Unix.stdin
    else
      try Ok (Unix.openfile path [ Unix.O_RDONLY ] 0)
      with Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  in
  match fd_r with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok fd ->
    let st = Obs_watch.create () in
    let buf = Bytes.create 65536 in
    let pending = Buffer.create 256 in
    let feed_chunk n =
      Buffer.add_subbytes pending buf 0 n;
      let s = Buffer.contents pending in
      Buffer.clear pending;
      let rec feed = function
        | [] -> ()
        | [ tail ] -> Buffer.add_string pending tail
        | line :: rest ->
          Obs_watch.feed_line st line;
          feed rest
      in
      feed (String.split_on_char '\n' s)
    in
    let tty = Unix.isatty Unix.stdout in
    let render () =
      if tty then begin
        (* clear + home: the panel redraws in place *)
        print_string "\027[2J\027[H";
        List.iter print_endline (Obs_watch.render_panel ~width st)
      end
      else print_endline (Obs_watch.render_line st);
      flush stdout
    in
    let verdict () = if Obs_watch.warnings st > 0 then 2 else 0 in
    if once then begin
      (* read to EOF, render the latest state once *)
      let rec slurp () =
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n > 0 then begin
          feed_chunk n;
          slurp ()
        end
      in
      slurp ();
      List.iter print_endline (Obs_watch.render_panel ~width st);
      verdict ()
    end
    else begin
      (* follow until the final record (like tail -f; interrupt to
         stop early if the producer never finishes) *)
      let rec loop last_seq =
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n = 0 then begin
          Unix.sleepf interval;
          loop last_seq
        end
        else begin
          feed_chunk n;
          let seq = Obs_watch.seq st in
          if seq <> last_seq then render ();
          if Obs_watch.final st then verdict () else loop seq
        end
      in
      loop (-1)
    end

let watch_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"LIVE"
             ~doc:"The $(b,--live) NDJSON stream to watch: a file being \
                   appended by a concurrent $(b,ftrace analyze --live \
                   FILE), a completed stream, or $(b,-) for stdin \
                   (e.g. $(b,ftrace analyze --live - ... | ftrace \
                   watch -)).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Read the stream to EOF, render one panel and exit \
                   instead of following.")
  in
  let interval =
    Arg.(value & opt float 0.1
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Poll interval while waiting for the producer to \
                   append (default 0.1s).")
  in
  let width =
    Arg.(value & opt int 72
         & info [ "width" ] ~docv:"COLS"
             ~doc:"Panel width in columns (default 72).")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Watch a live telemetry stream (schema $(b,ftrace.live/1)) \
             as a self-updating panel: progress and ETA, events/s \
             sparkline, epoch-fast-path share, top rules, per-worker \
             load bars.  Exit code 2 if the finished run reported \
             races, mirroring $(b,analyze)")
    Term.(const watch $ file $ once $ interval $ width)

(* ------------------------------------------------------------------ *)
(* lint                                                               *)

(* "t4/s0" (or bare "4/0"): one program point for --mhp *)
let parse_node s =
  let num prefix x =
    let x = String.trim x in
    let x =
      if String.length x > 1 && x.[0] = prefix then
        String.sub x 1 (String.length x - 1)
      else x
    in
    int_of_string_opt x
  in
  match String.split_on_char '/' (String.trim s) with
  | [ a; b ] -> (
    match (num 't' a, num 's' b) with
    | Some t, Some s -> Some { Static.n_tid = t; n_seg = s }
    | _ -> None)
  | _ -> None

let parse_mhp_query q =
  match String.split_on_char ',' q with
  | [ a; b ] -> (
    match (parse_node a, parse_node b) with
    | Some a, Some b -> Some (a, b)
    | _ -> None)
  | _ -> None

let lint name scale json fail_on_finding mhp_query =
  match Workloads.find name with
  | None ->
    Printf.eprintf
      "unknown workload %S (the static analysis runs on workload \
       programs, not trace files; try `ftrace workloads')\n"
      name;
    1
  | Some w ->
    let summary =
      Static_cache.analyze ~workload:w.Workload.name ~scale (fun () ->
          w.Workload.program ~scale)
    in
    (* --json - owns stdout (CI pipes it into a parser), so the human
       report steps aside. *)
    if json <> Some "-" then Format.printf "%a@." Static.pp_report summary;
    Option.iter
      (fun path ->
        Static_json.write ~source:w.Workload.name ~path summary;
        if path <> "-" then
          Printf.printf "wrote static analysis to %s\n" path)
      json;
    let mhp_bad = ref false in
    Option.iter
      (fun q ->
        match parse_mhp_query q with
        | None ->
          Printf.eprintf
            "bad --mhp query %S (expected \"t1/s0,t4/s2\": two \
             thread/segment points separated by a comma)\n"
            q;
          mhp_bad := true
        | Some (a, b) ->
          Printf.printf "MHP t%d/s%d t%d/s%d = %s\n" a.Static.n_tid
            a.Static.n_seg b.Static.n_tid b.Static.n_seg
            (if Static.mhp summary a b then "parallel" else "ordered"))
      mhp_query;
    (* Replay every certificate the report carries; a rejected one is a
       bug in the analysis, never a finding to wave through. *)
    let rejected =
      List.filter_map
        (fun (e : Static.entry) ->
          match Static.check_certificate summary e with
          | Ok () -> None
          | Error msg -> Some (e, msg))
        summary.Static.entries
    in
    List.iter
      (fun ((e : Static.entry), msg) ->
        Printf.eprintf "certificate rejected on %s: %s\n"
          (Var.to_string e.Static.e_var) msg)
      rejected;
    if json <> Some "-" then
      Printf.printf "certificates: %d replayed, %d rejected\n"
        (List.length
           (List.filter
              (fun (e : Static.entry) -> e.Static.e_cert <> None)
              summary.Static.entries))
        (List.length rejected);
    if !mhp_bad || rejected <> [] then 1
    else if fail_on_finding && summary.Static.findings <> [] then 1
    else 0

let lint_cmd =
  let workload_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"WORKLOAD"
             ~doc:"Name of a built-in workload model (see $(b,ftrace \
                   workloads)).")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the analysis (schema $(b,ftrace.static/2): \
                   per-variable verdicts with machine-checkable \
                   certificates, lint findings, elimination ratio) as \
                   JSON to $(docv); $(b,-) writes to stdout.")
  in
  let fail_on_finding =
    Arg.(value & flag
         & info [ "fail-on-finding" ]
             ~doc:"CI gating: exit 1 if the linter reported any finding \
                   (release without hold, barrier party mismatch, ...).")
  in
  let mhp =
    Arg.(value & opt (some string) None
         & info [ "mhp" ] ~docv:"A,B"
             ~doc:"Also answer one may-happen-in-parallel query between \
                   two program points, e.g. $(b,--mhp t4/s0,t7/s1).  \
                   Answered in O(1) from the DPST labeling on \
                   async-finish programs; conservatively $(b,parallel) \
                   for cross-thread points of programs without a task \
                   tier.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Ahead-of-run static race analysis of a workload's program: \
             per-variable verdicts (thread-local, task-local, read-only, \
             lock-protected, sp-ordered, barrier-phased, \
             fork/join-ordered, may-race) with certificates, each \
             replayed by the certificate checker (exit 1 if one is \
             rejected), plus structural lint findings")
    Term.(
      const lint $ workload_arg $ scale_arg $ json $ fail_on_finding
      $ mhp)

(* ------------------------------------------------------------------ *)
(* workloads                                                          *)

let list_workloads () =
  let t =
    Table.create
      ~columns:
        [ ("Name", Table.Left); ("Threads", Table.Right);
          ("Races", Table.Right); ("Description", Table.Left) ]
  in
  List.iter
    (fun (w : Workload.t) ->
      Table.add_row t
        [ w.name; string_of_int w.threads; string_of_int w.expected_races;
          w.description ])
    Workloads.all;
  Table.print t;
  0

let workloads_cmd =
  Cmd.v
    (Cmd.info "workloads" ~doc:"List the available workload models")
    Term.(const list_workloads $ const ())

(* ------------------------------------------------------------------ *)

let main_cmd =
  Cmd.group
    (Cmd.info "ftrace" ~version:"1.0.0"
       ~doc:"Dynamic race detection on execution traces (FastTrack, \
             PLDI 2009 reproduction)")
    [ generate_cmd; analyze_cmd; compare_cmd; check_cmd; explain_cmd;
      lint_cmd; stats_cmd; profile_cmd; watch_cmd; workloads_cmd ]

let () = exit (Cmd.eval' main_cmd)
