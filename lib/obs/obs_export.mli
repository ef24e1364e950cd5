(** Assembling and writing the [--metrics FILE] JSON document.

    Schema (version [ftrace.obs/2], asserted by [test/test_obs.ml]):
    {v
    { "schema": "ftrace.obs/2",
      "host": { "cores": N, "ocaml": "...", "word_size": N },
      "enabled": bool,
      "spans":   [ {"name","start_s","duration_s","attrs"}, ... ],
      "gc":      [ {"at_s","major_words","heap_words",...}, ... ],
      ...caller extras (run info, detector stats, shard table) }
    v}

    The document always carries the two observability sections —
    empty when the handle is {!Obs.disabled} — so downstream tooling
    never branches on presence. *)

val document : ?extra:(string * Obs_json.t) list -> Obs.t -> Obs_json.t
(** Assemble the full document; [extra] fields are appended at the
    top level (the driver adds run/stat/shard context there). *)

val to_string : ?extra:(string * Obs_json.t) list -> Obs.t -> string

val write_file :
  path:string -> ?extra:(string * Obs_json.t) list -> Obs.t -> unit
(** Write the document (plus a trailing newline) to [path];
    [path = "-"] writes to stdout, so pipelines can consume the
    export without a temp file ([ftrace analyze --metrics - | jq]). *)
