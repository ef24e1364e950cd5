(* Immutable point-in-time view of a running analysis.

   The live telemetry bus (Obs_live) is built from these: each worker
   periodically publishes a partial snapshot of its own progress
   (reading only its *own* mutable counters, on its own domain — no
   cross-domain reads of unsynchronized state), and a collector merges
   the latest partials into one run-wide snapshot whose delta against
   the previously emitted one becomes an ftrace.live/1 record.

   ft_obs sits below ft_detector, so this module cannot see Stats.t;
   the driver flattens its counters into [counts] (a plain record of
   ints) at publish time.  Keeping the type dumb also keeps merging
   associative and the delta encoding trivially correct:
   [sub (add a b) a = b] field-wise. *)

type counts = {
  events : int;
      (* events the detector(s) processed so far (excludes eliminated) *)
  reads : int;
  writes : int;
  syncs : int;
  eliminated : int;
  epoch_ops : int;  (* O(1) epoch fast-path operations *)
  vc_ops : int;     (* O(n) vector-clock slow-path operations *)
  vc_ops_skipped : int;  (* of which done in O(1) (no-op sync rules) *)
  state_words : int;
  warnings : int;
}

let zero =
  { events = 0;
    reads = 0;
    writes = 0;
    syncs = 0;
    eliminated = 0;
    epoch_ops = 0;
    vc_ops = 0;
    vc_ops_skipped = 0;
    state_words = 0;
    warnings = 0 }

let add a b =
  { events = a.events + b.events;
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    syncs = a.syncs + b.syncs;
    eliminated = a.eliminated + b.eliminated;
    epoch_ops = a.epoch_ops + b.epoch_ops;
    vc_ops = a.vc_ops + b.vc_ops;
    vc_ops_skipped = a.vc_ops_skipped + b.vc_ops_skipped;
    state_words = a.state_words + b.state_words;
    warnings = a.warnings + b.warnings }

let sub a b =
  { events = a.events - b.events;
    reads = a.reads - b.reads;
    writes = a.writes - b.writes;
    syncs = a.syncs - b.syncs;
    eliminated = a.eliminated - b.eliminated;
    epoch_ops = a.epoch_ops - b.epoch_ops;
    vc_ops = a.vc_ops - b.vc_ops;
    vc_ops_skipped = a.vc_ops_skipped - b.vc_ops_skipped;
    state_words = a.state_words - b.state_words;
    warnings = a.warnings - b.warnings }

type worker = { w_id : int; w_events : int }

type t = {
  at : float;  (* seconds since the bus started *)
  phase : string;
  counts : counts;
  rules : (string * int) list;  (* cumulative rule hits; [] mid-run *)
  vars : (string * int) list;   (* hot-variable standings; [] unless profiling *)
  workers : worker array;
  heap_words : int;  (* GC quick-stat at snapshot time; 0 if unsampled *)
}

let empty =
  { at = 0.; phase = ""; counts = zero; rules = []; vars = [];
    workers = [||]; heap_words = 0 }

(* Merge rule alists by name (each worker's cumulative hits add). *)
let merge_rules alists =
  let tbl = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (name, n) ->
         match Hashtbl.find_opt tbl name with
         | Some r -> r := !r + n
         | None -> Hashtbl.replace tbl name (ref n)))
    alists;
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

(* Merge worker partials into one run-wide snapshot.  Counter fields
   add; [at] and [phase] are the merger's (the collector knows the
   clock and the phase, the workers don't). *)
let merge ~at ~phase parts =
  { at;
    phase;
    counts = List.fold_left (fun acc p -> add acc p.counts) zero parts;
    rules = merge_rules (List.map (fun p -> p.rules) parts);
    vars = merge_rules (List.map (fun p -> p.vars) parts);
    workers =
      Array.concat (List.map (fun p -> p.workers) parts)
      |> (fun ws ->
           Array.sort (fun a b -> Int.compare a.w_id b.w_id) ws;
           ws);
    heap_words =
      List.fold_left (fun acc p -> max acc p.heap_words) 0 parts }

(* Events accounted for against the trace length: processed +
   eliminated (skipped accesses never reach the detector but are
   progress all the same). *)
let events_seen t = t.counts.events + t.counts.eliminated

let progress ~total t =
  if total <= 0 then 0.
  else Float.min 1. (float_of_int (events_seen t) /. float_of_int total)

let eta ~total t =
  let seen = events_seen t in
  if seen <= 0 || t.at <= 0. || total <= seen then 0.
  else t.at *. float_of_int (total - seen) /. float_of_int seen

let fast_path_frac t =
  let fast = t.counts.epoch_ops and slow = t.counts.vc_ops in
  let ops = fast + slow in
  if ops <= 0 then 0. else float_of_int fast /. float_of_int ops

(* Max-over-mean of per-worker progress: the same statistic as
   Shard.imbalance_of_counts (not shared — ft_parallel sits above
   ft_obs). *)
let imbalance t =
  let ws = t.workers in
  let n = Array.length ws in
  if n = 0 then 1.0
  else begin
    let total = Array.fold_left (fun a w -> a + w.w_events) 0 ws in
    if total <= 0 then 1.0
    else begin
      let mx = Array.fold_left (fun a w -> max a w.w_events) 0 ws in
      float_of_int mx *. float_of_int n /. float_of_int total
    end
  end

let rate ~prev t =
  let dt = t.at -. prev.at in
  if dt <= 0. then 0.
  else float_of_int (events_seen t - events_seen prev) /. dt
