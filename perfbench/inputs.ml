(* The benchmark's workloads.  Each builds its inputs from a seed (the
   same seed gives the same inputs); the analysis under test receives
   only the built traces, and the programs for the static pre-pass.
   README.md in this directory gives each workload's reason. *)

type source =
  | Memory of Trace.t
      (** an in-memory trace, as `ftrace analyze <workload>` builds one *)
  | Text of string
      (** a recorded trace file's contents, parsed on every use *)

type t = {
  name : string;
  source : source;
  program : unit -> Program.t;
  expected_races : int option;  (** the model's documented race count *)
  events : int;
  threads : int;
  syncs : int;  (** non-access events *)
}

type size = Full | Tiny

let names = [ "table1"; "recorded"; "wide" ]

(* Distinct models get distinct interleavings under one run seed. *)
let model_seed ~seed i = (seed * 1009) + i

let schedule ~seed p =
  Span.with_ "runtime.schedule" (fun () ->
      Scheduler.run ~options:{ Scheduler.default_options with seed } p)

(* The per-thread projection of a trace as a straight-line program.
   The trace is one schedule of it, so static certificates for the
   program hold for the trace.  Each barrier release becomes a barrier
   of its own, waited on once by exactly its participants. *)
let program_of_trace tr =
  let n = Trace.thread_count tr in
  let bodies = Array.make n [] in
  let barriers = ref [] and next_barrier = ref 0 in
  let add t s = bodies.(t) <- s :: bodies.(t) in
  Trace.iter
    (function
      | Event.Read { t; x } -> add t (Program.Read x)
      | Event.Write { t; x } -> add t (Program.Write x)
      | Event.Acquire { t; m } -> add t (Program.Acquire m)
      | Event.Release { t; m } -> add t (Program.Release m)
      | Event.Fork { t; u } -> add t (Program.Fork u)
      | Event.Join { t; u } -> add t (Program.Join u)
      | Event.Volatile_read { t; v } -> add t (Program.Volatile_read v)
      | Event.Volatile_write { t; v } -> add t (Program.Volatile_write v)
      | Event.Barrier_release { threads } ->
        let id = !next_barrier in
        incr next_barrier;
        barriers := { Program.id; parties = List.length threads } :: !barriers;
        List.iter (fun t -> add t (Program.Barrier_wait id)) threads
      | Event.Txn_begin { t } -> add t Program.Txn_begin
      | Event.Txn_end { t } -> add t Program.Txn_end)
    tr;
  Program.make ~barriers:(List.rev !barriers)
    (List.init n (fun tid -> { Program.tid; body = List.rev bodies.(tid) }))

let input ~name ~source ~program ~expected_races tr =
  let _, _, syncs = Trace.counts tr in
  { name; source; program; expected_races; events = Trace.length tr;
    threads = Trace.thread_count tr; syncs }

(* [timed clock f] adds [f]'s wall time to [clock]: set-up time counts
   input construction only, not the size bookkeeping above. *)
let timed clock f =
  let x, dt = Obs_clock.wall_time f in
  clock := !clock +. dt;
  x

(* Scale 2 keeps the happens-before oracle, which is quadratic in the
   accesses per variable, within a few seconds per run. *)
let table1 ~size ~seed clock =
  let scale = match size with Full -> 2 | Tiny -> 1 in
  List.mapi
    (fun i (w : Workload.t) ->
      let program, tr =
        timed clock (fun () ->
            let p = w.Workload.program ~scale in
            (p, schedule ~seed:(model_seed ~seed i) p))
      in
      input ~name:w.Workload.name ~source:(Memory tr)
        ~program:(fun () -> program)
        ~expected_races:(Some w.Workload.expected_races) tr)
    Workloads.table1

(* Only the text stays resident, as in one CLI run on a recorded file;
   the static pre-pass rebuilds the program from the model, as
   `ftrace analyze --static-elim` does. *)
let recorded ~size ~seed clock =
  let scale = match size with Full -> 10 | Tiny -> 1 in
  List.mapi
    (fun i (w : Workload.t) ->
      let text, tr =
        timed clock (fun () ->
            let tr =
              schedule ~seed:(model_seed ~seed i) (w.Workload.program ~scale)
            in
            (Span.with_ "trace.serialize" (fun () -> Trace.to_string tr), tr))
      in
      input ~name:w.Workload.name ~source:(Text text)
        ~program:(fun () -> w.Workload.program ~scale)
        ~expected_races:(Some w.Workload.expected_races) tr)
    Workloads.eclipse

let wide_threads = [ 16; 64; 128 ]

(* No barriers: a barrier becomes one cross edge per participant pair in
   the static skeleton, and how many releases span most of the 128
   threads varies with the seed, so the static pre-pass cost varied
   threefold between seeds.  Barriers are under 0.1 % of the events;
   locks, volatiles and fork/join still give ~29 % sync. *)
let wide ~size ~seed clock =
  let length = match size with Full -> 100_000 | Tiny -> 2_000 in
  List.mapi
    (fun i threads ->
      let params =
        { Trace_gen.threads; vars = 256; locks = 8; volatiles = 4; length;
          profile = Trace_gen.Synchronized; barriers = false }
      in
      let tr, program =
        timed clock (fun () ->
            let tr =
              Span.with_ "trace_gen.generate" (fun () ->
                  Trace_gen.generate ~seed:(model_seed ~seed i) params)
            in
            (tr, program_of_trace tr))
      in
      input ~name:(Printf.sprintf "wide-%d" threads) ~source:(Memory tr)
        ~program:(fun () -> program) ~expected_races:None tr)
    wide_threads

(* The workload's inputs and the seconds spent constructing them. *)
let build workload ~size ~seed =
  let clock = ref 0. in
  let inputs =
    match workload with
    | "table1" -> table1 ~size ~seed clock
    | "recorded" -> recorded ~size ~seed clock
    | "wide" -> wide ~size ~seed clock
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  (inputs, !clock)
