(* Representation: a backing array of clocks plus the logical length
   [len] (one past the largest index ever written).  All O(n)
   operations iterate logical entries only, so capacity — which grows
   geometrically — never influences another clock's size: growth
   targets are always logical lengths.  (Growing from a peer's raw
   capacity instead compounds the doubling across copy/join ping-pong
   and explodes memory.) *)

type t = { mutable clocks : int array; mutable len : int }

let create ?(capacity = 4) () =
  { clocks = Array.make (max capacity 1) 0; len = 0 }

let bottom () = create ()

let grow v n =
  let cap = Array.length v.clocks in
  if n >= cap then begin
    let cap' = max (n + 1) (2 * cap) in
    let fresh = Array.make cap' 0 in
    Array.blit v.clocks 0 fresh 0 v.len;
    v.clocks <- fresh
  end

let get v t = if t < v.len then v.clocks.(t) else 0

let set v t c =
  grow v t;
  v.clocks.(t) <- c;
  if t >= v.len then begin
    (* entries between the old and new length must read as 0 *)
    Array.fill v.clocks v.len (t - v.len) 0;
    v.len <- t + 1
  end

let inc v t = set v t (get v t + 1)

let join_into ~dst src =
  grow dst (src.len - 1);
  if src.len > dst.len then begin
    Array.fill dst.clocks dst.len (src.len - dst.len) 0;
    dst.len <- src.len
  end;
  for t = 0 to src.len - 1 do
    let c = src.clocks.(t) in
    if c > dst.clocks.(t) then dst.clocks.(t) <- c
  done

let clear v =
  Array.fill v.clocks 0 v.len 0;
  v.len <- 0

let copy v = { clocks = Array.sub v.clocks 0 (max v.len 1); len = v.len }

let with_entry ?(min_len = 0) v ~tid ~clock =
  let len = max (max v.len (tid + 1)) min_len in
  let clocks = Array.make len 0 in
  Array.blit v.clocks 0 clocks 0 v.len;
  clocks.(tid) <- clock;
  { clocks; len }

let advance ~last cur buf =
  let n = ref 0 in
  let note u c =
    set last u c;
    buf.(2 * !n) <- u;
    buf.((2 * !n) + 1) <- c;
    incr n
  in
  for u = 0 to cur.len - 1 do
    let c = cur.clocks.(u) in
    if c <> get last u then note u c
  done;
  for u = cur.len to last.len - 1 do
    if last.clocks.(u) <> 0 then note u 0
  done;
  !n

let copy_into ~dst src =
  grow dst (src.len - 1);
  Array.blit src.clocks 0 dst.clocks 0 src.len;
  if dst.len > src.len then
    Array.fill dst.clocks src.len (dst.len - src.len) 0;
  dst.len <- src.len

let leq v1 v2 =
  let rec go t = t >= v1.len || (v1.clocks.(t) <= get v2 t && go (t + 1)) in
  go 0

let equal v1 v2 = leq v1 v2 && leq v2 v1

let find_gt v1 v2 =
  let rec go t =
    if t >= v1.len then None
    else if v1.clocks.(t) > get v2 t then Some (t, v1.clocks.(t))
    else go (t + 1)
  in
  go 0
let epoch_of v t = Epoch.make ~tid:t ~clock:(get v t)
let epoch_leq e v = Epoch.clock e <= get v (Epoch.tid e)
let length v = v.len
let capacity v = Array.length v.clocks

(* array header + one word per entry + record header/fields *)
let heap_words v = Array.length v.clocks + 4

let to_list v =
  (* one backward scan to the last nonzero entry, then cons down *)
  let rec last t = if t >= 0 && v.clocks.(t) = 0 then last (t - 1) else t in
  let rec go t acc = if t < 0 then acc else go (t - 1) (v.clocks.(t) :: acc) in
  go (last (v.len - 1)) []

let of_list l =
  let v = create ~capacity:(max 1 (List.length l)) () in
  List.iteri (fun t c -> set v t c) l;
  v

let pp ppf v =
  let l = to_list v in
  Format.fprintf ppf "⟨%a⟩"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    l
