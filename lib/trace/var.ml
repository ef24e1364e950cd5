type t = { obj : int; field : int }

type granularity = Fine | Coarse

let field_bits = 16
let max_field = (1 lsl field_bits) - 1
let max_obj = (1 lsl 22) - 1

let make ~obj ~field =
  if obj < 0 then invalid_arg "Var.make: negative obj";
  if field < 0 || field > max_field then
    invalid_arg (Printf.sprintf "Var.make: field %d out of range" field);
  { obj; field }

let scalar obj = make ~obj ~field:0

let key g x =
  match g with
  | Fine -> (x.obj lsl field_bits) lor x.field
  | Coarse -> x.obj

let owner_shard ~jobs x = x.obj mod jobs

let equal a b = a.obj = b.obj && a.field = b.field

let compare a b =
  match Int.compare a.obj b.obj with
  | 0 -> Int.compare a.field b.field
  | c -> c

let hash x = (x.obj * 31) + x.field

(* Plain concatenation, not [Format.asprintf]: the profiler names
   every new variable's cell with it. *)
let to_string x =
  if x.field = 0 then "x" ^ string_of_int x.obj
  else "x" ^ string_of_int x.obj ^ "." ^ string_of_int x.field

let pp ppf x = Format.pp_print_string ppf (to_string x)
