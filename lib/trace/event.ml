type t =
  | Read of { t : Tid.t; x : Var.t }
  | Write of { t : Tid.t; x : Var.t }
  | Acquire of { t : Tid.t; m : Lockid.t }
  | Release of { t : Tid.t; m : Lockid.t }
  | Fork of { t : Tid.t; u : Tid.t }
  | Join of { t : Tid.t; u : Tid.t }
  | Volatile_read of { t : Tid.t; v : Volatile.t }
  | Volatile_write of { t : Tid.t; v : Volatile.t }
  | Barrier_release of { threads : Tid.t list }
  | Txn_begin of { t : Tid.t }
  | Txn_end of { t : Tid.t }

let tid = function
  | Read { t; _ }
  | Write { t; _ }
  | Acquire { t; _ }
  | Release { t; _ }
  | Fork { t; _ }
  | Join { t; _ }
  | Volatile_read { t; _ }
  | Volatile_write { t; _ }
  | Txn_begin { t }
  | Txn_end { t } ->
    Some t
  | Barrier_release _ -> None

let is_access = function
  | Read _ | Write _ -> true
  | Acquire _ | Release _ | Fork _ | Join _ | Volatile_read _
  | Volatile_write _ | Barrier_release _ | Txn_begin _ | Txn_end _ ->
    false

let is_sync = function
  | Acquire _ | Release _ | Fork _ | Join _ | Volatile_read _
  | Volatile_write _ | Barrier_release _ ->
    true
  | Read _ | Write _ | Txn_begin _ | Txn_end _ -> false

let equal (a : t) (b : t) = a = b

(* The text codec: [add_to_buffer] writes the concrete syntax, [scan]
   reads it back.  Events are written as [name(arg,arg)]; variables as
   [xN] or [xN.F], locks as [mN], volatiles as [vN]. *)

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n) else add_digits b n

(* [name(t,<prefix>n)] *)
let add_pair b name t prefix n =
  Buffer.add_string b name;
  add_int b t;
  Buffer.add_char b ',';
  Buffer.add_string b prefix;
  add_int b n;
  Buffer.add_char b ')'

let add_access b name t (x : Var.t) =
  Buffer.add_string b name;
  add_int b t;
  Buffer.add_string b ",x";
  add_int b x.obj;
  if x.field <> 0 then begin
    Buffer.add_char b '.';
    add_int b x.field
  end;
  Buffer.add_char b ')'

let add_single b name t =
  Buffer.add_string b name;
  add_int b t;
  Buffer.add_char b ')'

let add_to_buffer b = function
  | Read { t; x } -> add_access b "rd(" t x
  | Write { t; x } -> add_access b "wr(" t x
  | Acquire { t; m } -> add_pair b "acq(" t "m" m
  | Release { t; m } -> add_pair b "rel(" t "m" m
  | Fork { t; u } -> add_pair b "fork(" t "" u
  | Join { t; u } -> add_pair b "join(" t "" u
  | Volatile_read { t; v } -> add_pair b "vrd(" t "v" v
  | Volatile_write { t; v } -> add_pair b "vwr(" t "v" v
  | Barrier_release { threads } ->
    Buffer.add_string b "barrier(";
    List.iteri
      (fun i t ->
        if i > 0 then Buffer.add_char b ',';
        add_int b t)
      threads;
    Buffer.add_char b ')'
  | Txn_begin { t } -> add_single b "begin(" t
  | Txn_end { t } -> add_single b "end(" t

let to_string e =
  let b = Buffer.create 16 in
  add_to_buffer b e;
  Buffer.contents b

let pp ppf e = Format.pp_print_string ppf (to_string e)

(* The scanner: a cursor reads one event's text left to right, in
   place, once; it allocates nothing but the event and its variable.
   Errors travel as the exceptions below up to [scan], which alone
   formats a message.  The small steps are inlined: parsing is the
   main cost of analysing a recorded trace. *)

type cursor = { text : string; mutable pos : int; mutable stop : int }

let cursor text = { text; pos = 0; stop = 0 }

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

exception Unknown_event (* an unknown name, or the wrong number of args *)
exception Bad_args

exception Over_limit of {
  what : string;
  bound : string;
  limit : int;
  lo : int;
  hi : int;
}

let rec skip_blanks s i hi =
  if i < hi && is_blank (String.unsafe_get s i) then skip_blanks s (i + 1) hi
  else i

let rec trim_end s lo i =
  if i > lo && is_blank (String.unsafe_get s (i - 1)) then trim_end s lo (i - 1)
  else i

let rec index s ch i hi =
  if i >= hi then -1
  else if String.unsafe_get s i = ch then i
  else index s ch (i + 1) hi

(* The character under the cursor; the closing ')' at [stop]. *)
let[@inline] peek c =
  if c.pos < c.stop then String.unsafe_get c.text c.pos else ')'

(* Reads the digit run at [i] onto [n]; [n] turns -1 once it exceeds
   [limit], which also catches runs too long for an [int]. *)
let rec digits_from c i limit n =
  match if i < c.stop then String.unsafe_get c.text i else ')' with
  | '0' .. '9' as ch ->
    let d = Char.code ch - 48 in
    digits_from c (i + 1) limit
      (if n < 0 || n > (limit - d) / 10 then -1 else (n * 10) + d)
  | _ ->
    c.pos <- i;
    n

let[@inline] number c ~what ~bound ~limit =
  let lo = c.pos in
  let n = digits_from c lo limit 0 in
  if c.pos = lo then raise Bad_args;
  if n < 0 then raise (Over_limit { what; bound; limit; lo; hi = c.pos });
  n

(* One argument: blanks, [prefix] (a letter, or '\000' for none), a
   number, blanks. *)
let[@inline] arg c prefix ~what ~bound ~limit =
  c.pos <- skip_blanks c.text c.pos c.stop;
  if prefix <> '\000' then
    if peek c = prefix then c.pos <- c.pos + 1 else raise Bad_args;
  let n = number c ~what ~bound ~limit in
  c.pos <- skip_blanks c.text c.pos c.stop;
  n

let[@inline] thread_id c =
  arg c '\000' ~what:"tid" ~bound:"Tid.max" ~limit:Tid.max

let[@inline] lock_id c =
  arg c 'm' ~what:"lock" ~bound:"max_int" ~limit:max_int

let[@inline] volatile_id c =
  arg c 'v' ~what:"volatile" ~bound:"max_int" ~limit:max_int

let[@inline] variable c : Var.t =
  c.pos <- skip_blanks c.text c.pos c.stop;
  if peek c <> 'x' then raise Bad_args;
  c.pos <- c.pos + 1;
  let obj = number c ~what:"object" ~bound:"Var.max_obj" ~limit:Var.max_obj in
  let field =
    if peek c <> '.' then 0
    else begin
      c.pos <- c.pos + 1;
      number c ~what:"field" ~bound:"Var.max_field" ~limit:Var.max_field
    end
  in
  c.pos <- skip_blanks c.text c.pos c.stop;
  { obj; field }

(* The comma after an argument that is not the last.  [stop] sits on
   the closing ')', so reaching it means too few arguments. *)
let[@inline] comma c =
  if c.pos = c.stop then raise Unknown_event
  else if String.unsafe_get c.text c.pos = ',' then c.pos <- c.pos + 1
  else raise Bad_args

(* [ending c v]: [v], the value of the last argument, must end the list. *)
let[@inline] ending c v =
  if c.pos = c.stop then v
  else if String.unsafe_get c.text c.pos = ',' then raise Unknown_event
  else raise Bad_args

let[@inline] thread_id_comma c =
  let t = thread_id c in
  comma c;
  t

let rec barrier_tids c =
  let t = thread_id c in
  if c.pos = c.stop then [ t ]
  else begin
    comma c;
    t :: barrier_tids c
  end

let rec named s lo lit k =
  k = String.length lit
  || (String.unsafe_get s (lo + k) = String.unsafe_get lit k
     && named s lo lit (k + 1))

let[@inline] is s lo lp lit = lp - lo = String.length lit && named s lo lit 0

(* The event named [s.[lo..lp-1]]; the cursor is on its first
   argument. *)
let event c lo lp =
  let s = c.text in
  if is s lo lp "rd" then
    let t = thread_id_comma c in
    Read { t; x = ending c (variable c) }
  else if is s lo lp "wr" then
    let t = thread_id_comma c in
    Write { t; x = ending c (variable c) }
  else if is s lo lp "acq" then
    let t = thread_id_comma c in
    Acquire { t; m = ending c (lock_id c) }
  else if is s lo lp "rel" then
    let t = thread_id_comma c in
    Release { t; m = ending c (lock_id c) }
  else if is s lo lp "fork" then
    let t = thread_id_comma c in
    Fork { t; u = ending c (thread_id c) }
  else if is s lo lp "join" then
    let t = thread_id_comma c in
    Join { t; u = ending c (thread_id c) }
  else if is s lo lp "vrd" then
    let t = thread_id_comma c in
    Volatile_read { t; v = ending c (volatile_id c) }
  else if is s lo lp "vwr" then
    let t = thread_id_comma c in
    Volatile_write { t; v = ending c (volatile_id c) }
  else if is s lo lp "barrier" then
    Barrier_release { threads = barrier_tids c }
  else if is s lo lp "begin" then Txn_begin { t = ending c (thread_id c) }
  else if is s lo lp "end" then Txn_end { t = ending c (thread_id c) }
  else raise Unknown_event

let sub s lo hi = String.sub s lo (hi - lo)

let scan c lo hi =
  let s = c.text in
  let lo = skip_blanks s lo hi in
  let hi = trim_end s lo hi in
  let fail fmt = Printf.ksprintf failwith fmt in
  let lp = index s '(' lo hi in
  if lp < 0 then fail "missing '(' in %S" (sub s lo hi)
  else if String.unsafe_get s (hi - 1) <> ')' then
    fail "missing ')' in %S" (sub s lo hi)
  else begin
    c.pos <- lp + 1;
    c.stop <- hi - 1;
    match event c lo lp with
    | e -> e
    | exception Unknown_event -> fail "unknown event %S" (sub s lo hi)
    | exception Bad_args ->
      fail "bad %s args in %S" (sub s lo lp) (sub s lo hi)
    | exception Over_limit { what; bound; limit; lo = a; hi = b } ->
      fail "%s %s exceeds %s = %d in %S" what (sub s a b) bound limit
        (sub s lo hi)
  end

let of_string s =
  match scan (cursor s) 0 (String.length s) with
  | e -> Ok e
  | exception Failure msg -> Error msg
