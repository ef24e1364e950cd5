type t = {
  mutable events : int;
  mutable reads : int;
  mutable writes : int;
  mutable syncs : int;
  mutable eliminated : int;
  mutable vc_allocs : int;
  mutable vc_ops : int;
  mutable vc_ops_skipped : int;
  mutable epoch_ops : int;
  mutable sampled : int;
  mutable skipped : int;
  mutable state_words : int;
  mutable peak_words : int;
  rules : (string, int ref) Hashtbl.t;
}

let create () =
  { events = 0;
    reads = 0;
    writes = 0;
    syncs = 0;
    eliminated = 0;
    vc_allocs = 0;
    vc_ops = 0;
    vc_ops_skipped = 0;
    epoch_ops = 0;
    sampled = 0;
    skipped = 0;
    state_words = 0;
    peak_words = 0;
    rules = Hashtbl.create 16 }

let count_event s e =
  s.events <- s.events + 1;
  match e with
  | Event.Read _ -> s.reads <- s.reads + 1
  | Event.Write _ -> s.writes <- s.writes + 1
  | e -> if Event.is_sync e then s.syncs <- s.syncs + 1

let counter s name =
  match Hashtbl.find_opt s.rules name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace s.rules name r;
    r

let bump_rule s name = incr (counter s name)

let rule_hits s name =
  match Hashtbl.find_opt s.rules name with Some r -> !r | None -> 0

let add_words s n =
  s.state_words <- s.state_words + n;
  if s.state_words > s.peak_words then s.peak_words <- s.state_words

let sub_words s n = s.state_words <- s.state_words - n

let merge_into ~into s =
  into.events <- into.events + s.events;
  into.reads <- into.reads + s.reads;
  into.writes <- into.writes + s.writes;
  into.syncs <- into.syncs + s.syncs;
  into.eliminated <- into.eliminated + s.eliminated;
  into.vc_allocs <- into.vc_allocs + s.vc_allocs;
  into.vc_ops <- into.vc_ops + s.vc_ops;
  into.vc_ops_skipped <- into.vc_ops_skipped + s.vc_ops_skipped;
  into.epoch_ops <- into.epoch_ops + s.epoch_ops;
  into.sampled <- into.sampled + s.sampled;
  into.skipped <- into.skipped + s.skipped;
  into.state_words <- into.state_words + s.state_words;
  (* Shards coexist, so the sum of per-shard peaks is the honest
     upper bound on the run's true footprint (individual peaks need
     not be simultaneous). *)
  into.peak_words <- into.peak_words + s.peak_words;
  Hashtbl.iter
    (fun name r ->
      let c = counter into name in
      c := !c + !r)
    s.rules

let sum stats =
  let acc = create () in
  List.iter (fun s -> merge_into ~into:acc s) stats;
  acc

let fields_alist s =
  [ ("events", s.events);
    ("reads", s.reads);
    ("writes", s.writes);
    ("syncs", s.syncs);
    ("eliminated", s.eliminated);
    ("vc_allocs", s.vc_allocs);
    ("vc_ops", s.vc_ops);
    ("vc_ops_skipped", s.vc_ops_skipped);
    ("epoch_ops", s.epoch_ops);
    ("sampled", s.sampled);
    ("skipped", s.skipped);
    ("state_words", s.state_words);
    ("peak_words", s.peak_words) ]

(* Most hits first; ties by name, so the order never depends on the
   table's bucket layout (which [merge_into] does not preserve). *)
let rules_alist s =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) s.rules []
  |> List.sort (fun (a, m) (b, n) ->
         match Int.compare n m with 0 -> String.compare a b | c -> c)

let pp ppf s =
  Format.fprintf ppf
    "@[<v>events: %d (rd %d / wr %d / sync %d)@,\
     vc allocs: %d, vc ops: %d (%d in O(1)), epoch ops: %d@,\
     state words: %d (peak %d)@,rules: %a@]"
    s.events s.reads s.writes s.syncs s.vc_allocs s.vc_ops s.vc_ops_skipped
    s.epoch_ops
    s.state_words s.peak_words
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (name, n) -> Format.fprintf ppf "%s=%d" name n))
    (rules_alist s)
