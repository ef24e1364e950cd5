type enabled = {
  metrics : Obs_metrics.t;
  spans : Obs_span.t;
  gc : Obs_gc.t;
}

type t = enabled option

let disabled = None

let create ?gc_every ?heap_walk () =
  Some
    { metrics = Obs_metrics.create ();
      spans = Obs_span.create ();
      gc = Obs_gc.create ?every:gc_every ?heap_walk () }

let is_enabled = Option.is_some
let metrics t = Option.map (fun e -> e.metrics) t
let spans t = Option.map (fun e -> e.spans) t
let gc t = Option.map (fun e -> e.gc) t

let span ?attrs t name f =
  match t with
  | None -> f ()
  | Some e -> Obs_span.with_ ?attrs e.spans name f

let record_span t ~name ~start ~duration ?attrs () =
  match t with
  | None -> ()
  | Some e -> Obs_span.record e.spans ~name ~start ~duration ?attrs ()

let now = function None -> 0. | Some e -> Obs_span.now e.spans
let gc_sample = function None -> () | Some e -> Obs_gc.sample_now e.gc

let gc_sample_final = function
  | None -> ()
  | Some e -> Obs_gc.sample_final e.gc

let gc_window = function
  | None -> None
  | Some e -> Some (Obs_gc.every e.gc, fun () -> Obs_gc.sample_now e.gc)

let counter t name =
  match t with None -> None | Some e -> Some (Obs_metrics.counter e.metrics name)

let bump t name n =
  match t with
  | None -> ()
  | Some e -> Obs_metrics.add (Obs_metrics.counter e.metrics name) n

let set_gauge t name v =
  match t with
  | None -> ()
  | Some e -> Obs_metrics.set (Obs_metrics.gauge e.metrics name) v

let observe t name v =
  match t with
  | None -> ()
  | Some e -> Obs_metrics.observe (Obs_metrics.histogram e.metrics name) v

let shard_view = function
  | None -> None
  | Some e -> Some { e with metrics = Obs_metrics.create () }

let merge ~into src =
  match (into, src) with
  | Some into, Some src ->
    Obs_metrics.merge_into ~into:into.metrics src.metrics
  | _ -> ()
