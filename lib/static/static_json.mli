(** The ["ftrace.static/2"] JSON document for [ftrace lint --json]:
    per-variable verdicts with their certificates (an ordering
    certificate in full: the write sequence, the chain between each
    consecutive pair of writes, and each read's place with its two
    chains), a bounded sample of each variable's sites, lint findings,
    and the elimination ratio. *)

val document : ?source:string -> Static.summary -> Obs_json.t

val to_string : ?source:string -> Static.summary -> string

val write : ?source:string -> path:string -> Static.summary -> unit
(** [path = "-"] writes to stdout. *)
