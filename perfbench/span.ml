(* In-memory span recorder for the traced run.

   The benchmark records a span around each call it makes into a
   library layer; nothing inside the libraries is instrumented.  A span
   has a name, a start, an end and the span that was open when it
   started.  A layer's self time is its span's duration minus the part
   its child spans cover.  Spans stay in memory until the run writes
   them out. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let recorded : t list ref = ref []  (* newest first *)
let count = ref 0
let open_spans : t list ref = ref []

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)
let bump tbl k v = Hashtbl.replace tbl k (get tbl k +. v)
let duration s = s.stop -. s.start

let push name start =
  let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
  let s = { id = !count; name; parent; start; stop = start } in
  incr count;
  recorded := s :: !recorded;
  s

let with_ name f =
  if not !enabled then f ()
  else begin
    let s = push name (Obs_clock.now ()) in
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.stop <- Obs_clock.now ();
        open_spans := List.tl !open_spans)
  end

(* A child of the innermost open span whose duration the library
   measured itself (the stealing driver's prefix wall, the prefix's
   route/build split), placed [offset] seconds after the parent's
   start. *)
let derived ?(offset = 0.) name seconds =
  if !enabled then
    match !open_spans with
    | p :: _ ->
      let s = push name (p.start +. offset) in
      s.stop <- s.start +. seconds
    | [] -> invalid_arg "Span.derived: no open span"

let mark () = !count

(* Self seconds per span name, over the spans recorded since [mark]. *)
let self_times ~since =
  let rec take acc = function
    | s :: rest when s.id >= since -> take (s :: acc) rest
    | _ -> acc
  in
  let spans = take [] !recorded in
  let covered = Hashtbl.create 16 in
  List.iter
    (fun s -> if s.parent >= since then bump covered s.parent (duration s))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s -> bump self s.name (duration s -. get covered s.id))
    spans;
  self

(* [spans] newest first, as [recorded] holds them. *)
let to_json spans =
  let t0 = match List.rev spans with s :: _ -> s.start | [] -> 0. in
  Obs_json.arr
    (List.rev_map
       (fun s ->
         Obs_json.obj
           [ ("id", Obs_json.int s.id); ("name", Obs_json.str s.name);
             ("parent", Obs_json.int s.parent);
             ("start_s", Obs_json.float (s.start -. t0));
             ("end_s", Obs_json.float (s.stop -. t0)) ])
       spans)
