(* State and rendering for `ftrace watch`: fold ftrace.live/1 NDJSON
   lines into a watch state, render it as a self-updating terminal
   panel (or one line per record for dumb sinks).

   Pure string-out rendering — the CLI owns the tailing loop, the
   terminal and the redraw escapes — so the panel is testable by
   feeding records and asserting on substrings. *)

module J = Obs_json_read

type t = {
  (* header *)
  mutable source : string;
  mutable tool : string;
  mutable total : int;
  (* latest record *)
  mutable seq : int;
  mutable at : float;
  mutable phase : string;
  mutable cum_events : int;
  mutable cum : Obs_snapshot.counts;  (* summed deltas *)
  mutable evps : float;
  mutable fast_frac : float;
  mutable imbalance : float;
  mutable heap_words : int;
  mutable workers : (int * int) list;  (* id, events *)
  mutable rules : (string * int) list;
  mutable vars : (string * int) list;  (* hot variables (profiling runs) *)
  (* sparkline history of evps, oldest first, bounded *)
  mutable rates : float list;
  (* final record *)
  mutable final : bool;
  mutable warnings : int;
  mutable wall : float;
}

let create () =
  { source = "";
    tool = "";
    total = 0;
    seq = 0;
    at = 0.;
    phase = "";
    cum_events = 0;
    cum = Obs_snapshot.zero;
    evps = 0.;
    fast_frac = 0.;
    imbalance = 1.;
    heap_words = 0;
    workers = [];
    rules = [];
    vars = [];
    rates = [];
    final = false;
    warnings = 0;
    wall = 0. }

let sparkline_window = 32

let counts_of_json j =
  { Obs_snapshot.events = J.int j "events";
    reads = J.int j "reads";
    writes = J.int j "writes";
    syncs = J.int j "syncs";
    eliminated = J.int j "eliminated";
    epoch_ops = J.int j "epoch_ops";
    vc_ops = J.int j "vc_ops";
    vc_ops_skipped = J.int j "vc_ops_skipped";
    state_words = J.int j "state_words";
    warnings = J.int j "warnings" }

let alist_of_json field j =
  match Option.bind (J.member field j) J.to_obj with
  | None -> []
  | Some fields ->
    List.filter_map
      (fun (k, v) -> Option.map (fun n -> (k, n)) (J.to_int v))
      fields
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let rules_of_json j = alist_of_json "rules" j
let vars_of_json j = alist_of_json "top_vars" j

(* Fold one parsed NDJSON line in.  Unknown lines are ignored (forward
   compatibility within the /1 major). *)
let feed t (j : J.t) =
  match J.member "schema" j with
  | Some _ ->
    t.source <- J.str j "source";
    t.tool <- J.str j "tool";
    t.total <- J.int j "total_events"
  | None ->
    t.seq <- J.int ~default:t.seq j "seq";
    t.at <- J.num ~default:t.at j "at_s";
    t.phase <- J.str ~default:t.phase j "phase";
    t.cum_events <- J.int ~default:t.cum_events j "cum_events";
    if J.bool j "final" then begin
      t.final <- true;
      t.phase <- "done";
      t.warnings <- J.int j "warnings";
      t.wall <- J.num j "wall_s";
      (match J.member "cum" j with
      | Some cum ->
        t.cum <-
          { (counts_of_json cum) with
            Obs_snapshot.warnings = t.warnings }
      | None -> ());
      (match rules_of_json j with [] -> () | rs -> t.rules <- rs);
      match vars_of_json j with [] -> () | vs -> t.vars <- vs
    end
    else begin
      (match J.member "d" j with
      | Some d -> t.cum <- Obs_snapshot.add t.cum (counts_of_json d)
      | None -> ());
      t.evps <- J.num j "evps";
      t.fast_frac <- J.num j "fast_frac";
      t.imbalance <- J.num ~default:1. j "imbalance";
      t.heap_words <- J.int ~default:t.heap_words j "heap_words";
      (match rules_of_json j with [] -> () | rs -> t.rules <- rs);
      (match vars_of_json j with [] -> () | vs -> t.vars <- vs);
      (match Option.bind (J.member "workers" j) J.to_arr with
      | None | Some [] -> ()
      | Some ws ->
        t.workers <-
          List.map (fun w -> (J.int w "id", J.int w "events")) ws);
      t.rates <- t.rates @ [ t.evps ];
      let extra = List.length t.rates - sparkline_window in
      if extra > 0 then t.rates <- List.filteri (fun i _ -> i >= extra) t.rates
    end

let feed_line t line =
  match String.trim line with
  | "" -> ()
  | trimmed -> Option.iter (feed t) (J.parse_opt trimmed)

let final t = t.final
let warnings t = t.warnings
let seq t = t.seq

(* ------------------------------------------------------------------ *)
(* Rendering helpers                                                  *)

let si n =
  let f = float_of_int n in
  if f >= 1e9 then Printf.sprintf "%.2fG" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2fM" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fk" (f /. 1e3)
  else string_of_int n

let si_f f =
  if Float.is_finite f && f >= 0. then si (int_of_float f) else "-"

let pct f = Printf.sprintf "%.1f%%" (100. *. f)

let bar ~width frac =
  let frac = Float.max 0. (Float.min 1. frac) in
  let full = int_of_float (frac *. float_of_int width) in
  String.concat ""
    [ String.make full '#'; String.make (width - full) '-' ]

let spark rates =
  (* ASCII sparkline: eight levels, scaled to the window max *)
  let glyphs = [| '.'; ':'; '-'; '='; '+'; '*'; '%'; '@' |] in
  match rates with
  | [] -> ""
  | rs ->
    let mx = List.fold_left Float.max 0. rs in
    if mx <= 0. then String.make (List.length rs) '.'
    else
      String.init (List.length rs) (fun i ->
          let r = List.nth rs i in
          let lvl =
            int_of_float (r /. mx *. 7.99) |> max 0 |> min 7
          in
          glyphs.(lvl))

let fmt_eta seconds =
  if seconds <= 0. then "--"
  else if seconds < 60. then Printf.sprintf "%.0fs" seconds
  else Printf.sprintf "%dm%02ds"
         (int_of_float seconds / 60)
         (int_of_float seconds mod 60)

let snapshot_of t =
  { Obs_snapshot.empty with
    at = t.at;
    phase = t.phase;
    counts = t.cum;
    workers =
      Array.of_list
        (List.map
           (fun (id, ev) -> { Obs_snapshot.w_id = id; w_events = ev })
           t.workers) }

(* One line per record, for non-TTY sinks and `watch --once`. *)
let render_line t =
  let snap = snapshot_of t in
  Printf.sprintf
    "[%7.2fs] %-8s %6s ev (%s) %9s ev/s  fast %s  warn %d"
    t.at t.phase (si t.cum_events)
    (if t.total > 0 then pct (Obs_snapshot.progress ~total:t.total snap)
     else "?")
    (si_f t.evps) (pct t.fast_frac) t.cum.Obs_snapshot.warnings

(* The full panel, as a list of lines (no trailing newline). *)
let render_panel ?(width = 72) t =
  let snap = snapshot_of t in
  let inner = max 20 (width - 24) in
  let title =
    Printf.sprintf "ftrace watch — %s%s"
      (if t.source = "" then "(run)" else t.source)
      (if t.tool = "" then "" else Printf.sprintf " [%s]" t.tool)
  in
  let progress_line =
    if t.total > 0 then
      let frac = Obs_snapshot.progress ~total:t.total snap in
      Printf.sprintf "%-9s [%s] %s  ETA %s" t.phase
        (bar ~width:inner frac) (pct frac)
        (if t.final then "done"
         else fmt_eta (Obs_snapshot.eta ~total:t.total snap))
    else Printf.sprintf "%-9s %s events" t.phase (si t.cum_events)
  in
  let rate_line =
    Printf.sprintf "rate      %9s ev/s  %s" (si_f t.evps)
      (spark t.rates)
  in
  let paths_line =
    Printf.sprintf
      "paths     fast %s   imbalance %.2f   heap %s words"
      (pct t.fast_frac) t.imbalance (si t.heap_words)
  in
  let counters_line =
    Printf.sprintf
      "counters  rd %s  wr %s  sync %s  elim %s  state %s w"
      (si t.cum.Obs_snapshot.reads) (si t.cum.Obs_snapshot.writes)
      (si t.cum.Obs_snapshot.syncs) (si t.cum.Obs_snapshot.eliminated)
      (si t.cum.Obs_snapshot.state_words)
  in
  let warn_line =
    let rules =
      match t.rules with
      | [] -> "(no hits yet)"
      | rs ->
        List.filteri (fun i _ -> i < 3) rs
        |> List.map (fun (name, n) -> Printf.sprintf "%s:%d" name n)
        |> String.concat "  "
    in
    Printf.sprintf "warnings  %d   %s" t.cum.Obs_snapshot.warnings rules
  in
  (* hot variables, mirroring the top-rules treatment; absent unless
     the run is profiling (--profile / ftrace profile) *)
  let vars_lines =
    match t.vars with
    | [] -> []
    | vs ->
      [ Printf.sprintf "hot vars  %s"
          (List.filteri (fun i _ -> i < 4) vs
          |> List.map (fun (name, n) -> Printf.sprintf "%s:%s" name (si n))
          |> String.concat "  ") ]
  in
  let worker_lines =
    match t.workers with
    | [] | [ _ ] -> []
    | ws ->
      let mx =
        List.fold_left (fun a (_, ev) -> max a ev) 1 ws
      in
      List.map
        (fun (id, ev) ->
          Printf.sprintf "  w%-2d [%s] %s" id
            (bar ~width:(inner / 2)
               (float_of_int ev /. float_of_int mx))
            (si ev))
        ws
  in
  let tail =
    if t.final then
      [ Printf.sprintf "done      %d warning(s) in %.2fs wall"
          t.warnings t.wall ]
    else []
  in
  (title :: progress_line :: rate_line :: paths_line :: counters_line
   :: warn_line :: vars_lines)
  @ worker_lines @ tail
