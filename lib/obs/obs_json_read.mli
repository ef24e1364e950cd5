(** Minimal JSON reader, the inverse of {!Obs_json} (no JSON library
    in the image).  Consumers: [ftrace watch] (ftrace.live/1 NDJSON)
    and the test suite's schema assertions.

    Numbers are parsed as floats (JSON has one number type); use
    {!to_int}/{!int} for counters, which our writers always emit
    integrally. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input (with an offset). *)

val parse_opt : string -> t option

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup; [None] for missing fields and non-objects. *)

val to_num : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_arr : t -> t list option
val to_obj : t -> (string * t) list option
val to_bool : t -> bool option

(** {2 Defaulted field lookup (object + field name)} *)

val num : ?default:float -> t -> string -> float
val int : ?default:int -> t -> string -> int
val str : ?default:string -> t -> string -> string
val bool : ?default:bool -> t -> string -> bool
