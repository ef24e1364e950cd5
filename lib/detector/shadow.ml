type mode = Fine | Coarse | Adaptive

type 'a t = {
  mode : mode;
  mutable objs : 'a option array array;  (* outer: obj id, inner: field *)
  mutable refined : bool array;          (* Adaptive: per-object flag *)
  mutable count : int;
}

let create mode =
  { mode; objs = [||]; refined = [||]; count = 0 }

let is_refined t obj =
  obj < Array.length t.refined && t.refined.(obj)

(* Which inner slot does [x] use right now? *)
let field_of t (x : Var.t) =
  match t.mode with
  | Fine -> x.field
  | Coarse -> 0
  | Adaptive -> if is_refined t x.obj then x.field else 0

let ensure_obj t obj =
  let n = Array.length t.objs in
  if obj >= n then begin
    let fresh = Array.make (max (obj + 1) (2 * n + 1)) [||] in
    Array.blit t.objs 0 fresh 0 n;
    t.objs <- fresh
  end

let ensure_field t obj field =
  let fields = t.objs.(obj) in
  let n = Array.length fields in
  if field >= n then begin
    let fresh = Array.make (max (field + 1) (2 * n + 1)) None in
    Array.blit fields 0 fresh 0 n;
    t.objs.(obj) <- fresh
  end

let find t (x : Var.t) =
  let field = field_of t x in
  if x.obj < Array.length t.objs then begin
    let fields = t.objs.(x.obj) in
    if field < Array.length fields then fields.(field) else None
  end
  else None

let get t (x : Var.t) init =
  let field = field_of t x in
  if
    x.obj < Array.length t.objs
    && field < Array.length t.objs.(x.obj)
  then begin
    match t.objs.(x.obj).(field) with
    | Some state -> state
    | None ->
      let state = init x in
      t.objs.(x.obj).(field) <- Some state;
      t.count <- t.count + 1;
      state
  end
  else begin
    ensure_obj t x.obj;
    ensure_field t x.obj field;
    let state = init x in
    t.objs.(x.obj).(field) <- Some state;
    t.count <- t.count + 1;
    state
  end

let key t (x : Var.t) =
  match t.mode with
  | Fine -> Var.key Var.Fine x
  | Coarse -> Var.key Var.Coarse x
  | Adaptive ->
    (* disambiguate the two key spaces *)
    if is_refined t x.obj then (2 * Var.key Var.Fine x) + 1
    else 2 * Var.key Var.Coarse x

let refine t (x : Var.t) =
  match t.mode with
  | Fine | Coarse -> ()
  | Adaptive ->
    let obj = x.obj in
    let n = Array.length t.refined in
    if obj >= n then begin
      let fresh = Array.make (max (obj + 1) (2 * n + 1)) false in
      Array.blit t.refined 0 fresh 0 n;
      t.refined <- fresh
    end;
    if not t.refined.(obj) then begin
      t.refined.(obj) <- true;
      (* abandon the coarse state: field 0's slot belongs to the
         coarse phase, so clear the whole object *)
      if obj < Array.length t.objs && Array.length t.objs.(obj) > 0 then begin
        Array.iteri
          (fun i slot -> if Option.is_some slot then begin
               t.objs.(obj).(i) <- None;
               t.count <- t.count - 1
             end)
          t.objs.(obj)
      end
    end

let refined t (x : Var.t) = is_refined t x.obj
let count t = t.count

let iter f t =
  Array.iter
    (fun fields ->
      Array.iter (function Some state -> f state | None -> ()) fields)
    t.objs
