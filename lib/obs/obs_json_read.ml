(* A minimal recursive-descent JSON reader.

   The image ships no JSON library, and until now the only parser in
   the tree lived in test/test_obs.ml — fine while JSON was only ever
   *written* by the tools.  The live telemetry bus changes that:
   `ftrace watch` consumes ftrace.live/1 NDJSON records, so the reader
   moves into ft_obs next to the writer (Obs_json) it mirrors. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end" in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    advance ()
  in
  let lit word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          (* decode \uXXXX as a raw byte: enough for the ASCII range
             our own escaper (Obs_json.escape) ever emits *)
          if !pos + 4 >= n then fail "truncated \\u escape";
          let hex = String.sub s (!pos + 1) 4 in
          advance ();
          advance ();
          advance ();
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code -> Buffer.add_char b (Char.chr (code land 0xff))
          | None -> fail "bad \\u escape")
        | c -> Buffer.add_char b c);
        advance ();
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if start = !pos then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            fields ((k, v) :: acc)
          | '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            items (v :: acc)
          | ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (items [])
      end
    | '"' -> Str (string_body ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ -> Num (number ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_opt s = try Some (parse s) with Parse_error _ -> None

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_arr = function Arr a -> Some a | _ -> None
let to_obj = function Obj o -> Some o | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let to_int j =
  match to_num j with
  | Some f when Float.is_finite f -> Some (int_of_float f)
  | _ -> None

let num ?(default = 0.) j name =
  match Option.bind (member name j) to_num with
  | Some f -> f
  | None -> default

let int ?(default = 0) j name =
  match Option.bind (member name j) to_int with
  | Some i -> i
  | None -> default

let str ?(default = "") j name =
  match Option.bind (member name j) to_str with
  | Some s -> s
  | None -> default

let bool ?(default = false) j name =
  match Option.bind (member name j) to_bool with
  | Some b -> b
  | None -> default
