type enabled = {
  spans : Obs_span.t;
  gc : Obs_gc.t;
}

type t = enabled option

let disabled = None

let create ?gc_every ?heap_walk () =
  Some
    { spans = Obs_span.create ();
      gc = Obs_gc.create ?every:gc_every ?heap_walk () }

let is_enabled = Option.is_some
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
