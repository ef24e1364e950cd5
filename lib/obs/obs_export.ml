let schema_version = "ftrace.obs/2"

let document ?(extra = []) t =
  let spans =
    match Obs.spans t with
    | Some s -> Obs_span.to_json s
    | None -> Obs_json.arr []
  in
  let gc =
    match Obs.gc t with
    | Some g -> Obs_gc.to_json g
    | None -> Obs_json.arr []
  in
  Obs_json.obj
    ([ ("schema", Obs_json.str schema_version);
       ("host",
        Obs_json.obj
          [ ("cores", Obs_json.int (Obs_cores.recommended ()));
            ("ocaml", Obs_json.str Sys.ocaml_version);
            ("word_size", Obs_json.int Sys.word_size) ]);
       ("enabled", Obs_json.bool (Obs.is_enabled t));
       ("spans", spans);
       ("gc", gc) ]
    @ extra)

let to_string ?extra t = Obs_json.to_string (document ?extra t)

let write_file ~path ?extra t =
  if path = "-" then begin
    Obs_json.to_channel stdout (document ?extra t);
    print_newline ()
  end
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Obs_json.to_channel oc (document ?extra t);
        output_char oc '\n')
  end
