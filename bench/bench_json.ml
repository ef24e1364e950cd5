type record = {
  experiment : string;
  workload : string;
  tool : string;
  jobs : int;
  plan : string;
  events : int;
  elapsed : float;
  throughput : float;
  slowdown : float;
  speedup : float;
  warnings : int;
  imbalance : float;
  static_elim : bool;
  dropped_frac : float;
  prefix_wall : float;
  prefix_frac : float;
  amdahl_ceiling : float;
  rate : float;
  recall : float;
  static_ms : float;
}

let throughput ~events ~elapsed =
  if elapsed > 0. then float_of_int events /. elapsed else 0.

let records : record list ref = ref []
let add r = records := r :: !records
let recorded () = List.rev !records
let reset () = records := []

(* Minimal JSON string escaping: our strings are tool/workload names,
   but stay correct on arbitrary input. *)
let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let record_to_json r =
  (* The prefix/Amdahl fields only mean something for stealing-plan
     rows; elsewhere they are zero and omitted to keep the other
     experiments' records unchanged. *)
  let prefix_fields =
    if r.prefix_wall > 0. || r.prefix_frac > 0. || r.amdahl_ceiling > 0.
    then
      Printf.sprintf
        ",\"prefix_wall\":%.6f,\"prefix_frac\":%.4f,\"amdahl_ceiling\":%.3f"
        r.prefix_wall r.prefix_frac r.amdahl_ceiling
    else ""
  in
  (* Same omission discipline for the sampling-tier fields: -1 is the
     "not a sampling row" sentinel, so every pre-existing experiment's
     record shape is unchanged.  recall alone can be absent (a rate
     sweep on a race-free workload has no oracle to recall). *)
  let sampling_fields =
    (if r.rate >= 0. then Printf.sprintf ",\"rate\":%.3f" r.rate else "")
    ^
    if r.recall >= 0. then Printf.sprintf ",\"recall\":%.4f" r.recall
    else ""
  in
  let static_field =
    if r.static_ms >= 0. then Printf.sprintf ",\"static_ms\":%.3f" r.static_ms
    else ""
  in
  Printf.sprintf
    "{\"experiment\":\"%s\",\"workload\":\"%s\",\"tool\":\"%s\",\
     \"jobs\":%d,\"plan\":\"%s\",\"events\":%d,\"elapsed_s\":%.6f,\
     \"throughput\":%.1f,\
     \"slowdown\":%.3f,\"speedup\":%.3f,\"warnings\":%d,\
     \"imbalance\":%.3f,\"static_elim\":%b,\"dropped_frac\":%.4f%s%s%s}"
    (escape r.experiment) (escape r.workload) (escape r.tool) r.jobs
    (escape r.plan) r.events r.elapsed r.throughput r.slowdown r.speedup
    r.warnings r.imbalance r.static_elim r.dropped_frac prefix_fields
    sampling_fields static_field

let write ~scale ~repeat path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc
        "{\"host\":{\"cores\":%d,\"ocaml\":\"%s\",\"word_size\":%d,\
         \"profile\":\"%s\"},\n\
        \ \"scale\":%d,\"repeat\":%d,\n\
        \ \"records\":[\n"
        (Obs_cores.recommended ())
        (escape Sys.ocaml_version) Sys.word_size
        (escape Build_profile.name)
        scale repeat;
      let rs = recorded () in
      List.iteri
        (fun i r ->
          Printf.fprintf oc "  %s%s\n" (record_to_json r)
            (if i < List.length rs - 1 then "," else ""))
        rs;
      output_string oc " ]}\n");
  Printf.printf "wrote %d benchmark record(s) to %s\n"
    (List.length (recorded ()))
    path
