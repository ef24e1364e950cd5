(* Shadow-state profiler (see obs_prof.mli for the contract).

   Attribution follows the RoadRunner idiom the shadow memory already
   reproduces: the cell lives *inside* the detector's per-variable
   shadow state, so the hot path never probes a table — it increments
   through a pointer it already holds.  The cell table here exists
   for the cold sides only: census, merge, ranking, export. *)

let schema_version = "ftrace.prof/2"

type rule_class = Same_epoch | Epoch | Vc

let class_to_string = function
  | Same_epoch -> "same_epoch"
  | Epoch -> "epoch"
  | Vc -> "vc"

type cell = {
  c_key : int;
  c_name : string;
  c_rules : int array;
  mutable c_inflations : int;
  mutable c_deflations : int;
  mutable c_inflated_now : bool;
  mutable c_rvc_words : int;
  mutable c_ns : float;      (* sampled nanoseconds attributed here *)
  mutable c_samples : int;
}

let max_rules = 16

let no_cell =
  { c_key = -1;
    c_name = "";
    c_rules = Array.make max_rules 0;
    c_inflations = 0;
    c_deflations = 0;
    c_inflated_now = false;
    c_rvc_words = 0;
    c_ns = 0.;
    c_samples = 0 }

let buckets_n = 40  (* log2-ns buckets: 2^0 .. 2^39 ns *)

(* Bound on each view's counter-track series; it thins by 2x and
   doubles its stride when full. *)
let series_cap = 512

type enabled = {
  stride : int;
  start : float;  (* monotonic epoch shared by all views of a run *)
  series_id : int;
  mutable rule_names : string array;
  mutable rule_classes : rule_class array;
  cells : (int, cell) Hashtbl.t;
  (* per-class totals (one access = one rule = one class) *)
  mutable tot_same : int;
  mutable tot_epoch : int;
  mutable tot_vc : int;
  mutable sync_vc_ops : int;
  mutable tot_inflations : int;
  mutable tot_deflations : int;
  (* timing sampler: the cell and class of the access being timed *)
  mutable last_cell : cell;
  mutable last_vc : bool;
  buckets_fast : int array;
  buckets_vc : int array;
  mutable t_samples : int;
  (* census *)
  mutable census_cb : (unit -> unit) option;
  mutable census_taken : bool;
  mutable cs_vars : int;
  mutable cs_inflated : int;
  mutable cs_words : int;
  mutable cs_rvc_words : int;
  (* bounded cumulative series, newest first: (view id, at, o1, vc) *)
  mutable series_rev : (int * float * int * int) list;
  mutable series_n : int;
  mutable series_stride : int;  (* samples per point; doubles on thin *)
  mutable series_skip : int;
}

type t = enabled option

let disabled : t = None
let is_enabled = Option.is_some

(* Shard views need distinct series ids; views are created on worker
   domains, so the counter is atomic. *)
let next_id = Atomic.make 0

let make ~stride ~start =
  { stride;
    start;
    series_id = Atomic.fetch_and_add next_id 1;
    rule_names = [||];
    rule_classes = [||];
    cells = Hashtbl.create 256;
    tot_same = 0;
    tot_epoch = 0;
    tot_vc = 0;
    sync_vc_ops = 0;
    tot_inflations = 0;
    tot_deflations = 0;
    last_cell = no_cell;
    last_vc = false;
    buckets_fast = Array.make buckets_n 0;
    buckets_vc = Array.make buckets_n 0;
    t_samples = 0;
    census_cb = None;
    census_taken = false;
    cs_vars = 0;
    cs_inflated = 0;
    cs_words = 0;
    cs_rvc_words = 0;
    series_rev = [];
    series_n = 0;
    series_stride = 1;
    series_skip = 0 }

let create ?(sample_stride = 512) () : t =
  Some (make ~stride:(max 1 sample_stride) ~start:(Obs_clock.now ()))

(* ------------------------------------------------------------------ *)
(* Detector-side hooks                                                *)

let register_rules (t : t) rules =
  match t with
  | None -> ()
  | Some e ->
    e.rule_names <- Array.map fst rules;
    e.rule_classes <- Array.map snd rules

let cell (t : t) ~key ~name =
  match t with
  | None -> no_cell
  | Some e -> (
    match Hashtbl.find_opt e.cells key with
    | Some c -> c
    | None ->
      let c =
        { no_cell with
          c_key = key;
          c_name = name;
          c_rules =
            Array.make (max max_rules (Array.length e.rule_names)) 0 }
      in
      Hashtbl.replace e.cells key c;
      c)

(* The inlined protocol: a detector that already counts rule hits in
   its own registers (FastTrack's [Stats.counter] refs) keeps {e only}
   the per-cell increment on its hot path — through the raw array
   {!cell_rules} hands out, no call, no option match — and reconciles
   the class totals at sample and census boundaries via
   {!note_totals}.  {!attribute} records the cell of the one access
   per stride that is being timed. *)

let cell_rules c = c.c_rules

let attribute (t : t) c ~vc =
  match t with
  | None -> ()
  | Some e ->
    e.last_cell <- c;
    e.last_vc <- vc

let note_totals (t : t) ~same ~epoch ~vc =
  match t with
  | None -> ()
  | Some e ->
    e.tot_same <- same;
    e.tot_epoch <- epoch;
    e.tot_vc <- vc

let inflate (t : t) c =
  match t with
  | None -> ()
  | Some e ->
    c.c_inflations <- c.c_inflations + 1;
    e.tot_inflations <- e.tot_inflations + 1

let deflate (t : t) c =
  match t with
  | None -> ()
  | Some e ->
    c.c_deflations <- c.c_deflations + 1;
    e.tot_deflations <- e.tot_deflations + 1

let sync_vc_op (t : t) =
  match t with
  | None -> ()
  | Some e -> e.sync_vc_ops <- e.sync_vc_ops + 1

(* ------------------------------------------------------------------ *)
(* Sampled timing + counter-track series                              *)

let sample_stride (t : t) = match t with None -> 0 | Some e -> e.stride

let log2_bucket ns =
  let n = int_of_float ns in
  if n <= 1 then 0
  else begin
    let rec lg acc n = if n <= 1 then acc else lg (acc + 1) (n lsr 1) in
    min (buckets_n - 1) (lg 0 n)
  end

(* Thin the view's own series: keep every other point (oldest-first
   parity, so the endpoints survive) and double the stride.  Cold:
   runs O(log total-samples) times per view. *)
let thin_series e =
  let kept =
    List.rev e.series_rev
    |> List.filteri (fun i _ -> i mod 2 = 0)
    |> List.rev
  in
  e.series_rev <- kept;
  e.series_n <- List.length kept;
  e.series_stride <- e.series_stride * 2

let push_point e =
  e.series_skip <- e.series_skip - 1;
  if e.series_skip <= 0 then begin
    e.series_skip <- e.series_stride;
    e.series_rev <-
      ( e.series_id,
        Obs_clock.now () -. e.start,
        e.tot_same + e.tot_epoch,
        e.tot_vc )
      :: e.series_rev;
    e.series_n <- e.series_n + 1;
    if e.series_n > series_cap then thin_series e
  end

let sample (t : t) ~ns =
  match t with
  | None -> ()
  | Some e ->
    let c = e.last_cell in
    c.c_ns <- c.c_ns +. ns;
    c.c_samples <- c.c_samples + 1;
    let buckets = if e.last_vc then e.buckets_vc else e.buckets_fast in
    let b = log2_bucket ns in
    buckets.(b) <- buckets.(b) + 1;
    e.t_samples <- e.t_samples + 1;
    push_point e

(* ------------------------------------------------------------------ *)
(* Census                                                             *)

let set_census (t : t) f =
  match t with None -> () | Some e -> e.census_cb <- Some f

let census_var (t : t) c ~inflated ~words ~rvc_words =
  match t with
  | None -> ()
  | Some e ->
    e.cs_vars <- e.cs_vars + 1;
    if inflated then e.cs_inflated <- e.cs_inflated + 1;
    e.cs_words <- e.cs_words + words;
    e.cs_rvc_words <- e.cs_rvc_words + rvc_words;
    c.c_inflated_now <- inflated;
    c.c_rvc_words <- rvc_words

let take_census (t : t) =
  match t with
  | None -> ()
  | Some e ->
    (match e.census_cb with
    | None -> ()
    | Some f ->
      e.cs_vars <- 0;
      e.cs_inflated <- 0;
      e.cs_words <- 0;
      e.cs_rvc_words <- 0;
      f ();
      e.census_taken <- true)

(* ------------------------------------------------------------------ *)
(* Sharding                                                           *)

let shard_view (t : t) : t =
  match t with
  | None -> None
  | Some e -> Some (make ~stride:e.stride ~start:e.start)

let merge_cell ~into:d c =
  let n = min (Array.length d.c_rules) (Array.length c.c_rules) in
  for i = 0 to n - 1 do
    d.c_rules.(i) <- d.c_rules.(i) + c.c_rules.(i)
  done;
  d.c_inflations <- d.c_inflations + c.c_inflations;
  d.c_deflations <- d.c_deflations + c.c_deflations;
  d.c_inflated_now <- d.c_inflated_now || c.c_inflated_now;
  d.c_rvc_words <- d.c_rvc_words + c.c_rvc_words;
  d.c_ns <- d.c_ns +. c.c_ns;
  d.c_samples <- d.c_samples + c.c_samples

let merge ~(into : t) (src : t) =
  match (into, src) with
  | None, _ | _, None -> ()
  | Some d, Some s ->
    Hashtbl.iter
      (fun key c ->
        match Hashtbl.find_opt d.cells key with
        | Some dc -> merge_cell ~into:dc c
        | None -> Hashtbl.replace d.cells key c)
      s.cells;
    if Array.length d.rule_names = 0 then begin
      d.rule_names <- s.rule_names;
      d.rule_classes <- s.rule_classes
    end;
    d.tot_same <- d.tot_same + s.tot_same;
    d.tot_epoch <- d.tot_epoch + s.tot_epoch;
    d.tot_vc <- d.tot_vc + s.tot_vc;
    d.sync_vc_ops <- d.sync_vc_ops + s.sync_vc_ops;
    d.tot_inflations <- d.tot_inflations + s.tot_inflations;
    d.tot_deflations <- d.tot_deflations + s.tot_deflations;
    Array.iteri
      (fun i n -> d.buckets_fast.(i) <- d.buckets_fast.(i) + n)
      s.buckets_fast;
    Array.iteri
      (fun i n -> d.buckets_vc.(i) <- d.buckets_vc.(i) + n)
      s.buckets_vc;
    d.t_samples <- d.t_samples + s.t_samples;
    d.census_taken <- d.census_taken || s.census_taken;
    d.cs_vars <- d.cs_vars + s.cs_vars;
    d.cs_inflated <- d.cs_inflated + s.cs_inflated;
    d.cs_words <- d.cs_words + s.cs_words;
    d.cs_rvc_words <- d.cs_rvc_words + s.cs_rvc_words;
    d.series_rev <- s.series_rev @ d.series_rev;
    d.series_n <- d.series_n + s.series_n

(* ------------------------------------------------------------------ *)
(* Consumers                                                          *)

let vc_walks (t : t) = match t with None -> 0 | Some e -> e.tot_vc
let inflated_now (t : t) = match t with None -> 0 | Some e -> e.cs_inflated

let accesses (t : t) =
  match t with
  | None -> 0
  | Some e -> e.tot_same + e.tot_epoch + e.tot_vc

let frac num den = if den <= 0 then 0. else float_of_int num /. float_of_int den

let fast_frac (t : t) =
  match t with
  | None -> 0.
  | Some e -> frac (e.tot_same + e.tot_epoch) (accesses t)

let same_epoch_frac (t : t) =
  match t with None -> 0. | Some e -> frac e.tot_same (accesses t)

let cell_total c = Array.fold_left ( + ) 0 c.c_rules

(* The exact ranking every consumer reads: cells by attributed ops,
   descending, ties by name. *)
let ranked_cells e =
  Hashtbl.fold (fun _ c acc -> (c, cell_total c) :: acc) e.cells []
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (a, na) (b, nb) ->
         match Int.compare nb na with
         | 0 -> compare a.c_name b.c_name
         | c -> c)

let top_ranked e ~top = List.filteri (fun i _ -> i < top) (ranked_cells e)

let hot_alist ?(k = 5) (t : t) =
  match t with
  | None -> []
  | Some e -> List.map (fun (c, n) -> (c.c_name, n)) (top_ranked e ~top:k)

let series (t : t) =
  match t with
  | None -> []
  | Some e ->
    let pts =
      List.rev e.series_rev
      |> List.stable_sort (fun (_, a, _, _) (_, b, _, _) ->
             Float.compare a b)
    in
    (* each view's points are cumulative for that view; the global
       cumulative at time t is the sum of each view's latest value *)
    let latest = Hashtbl.create 8 in
    List.map
      (fun (id, at, o1, vc) ->
        Hashtbl.replace latest id (o1, vc);
        let f, v =
          Hashtbl.fold
            (fun _ (f, v) (af, av) -> (af + f, av + v))
            latest (0, 0)
        in
        (at, f, v))
      pts

(* ------------------------------------------------------------------ *)
(* ftrace.prof/2                                                      *)

let rules_totals e =
  let n = Array.length e.rule_names in
  let totals = Array.make n 0 in
  Hashtbl.iter
    (fun _ c ->
      for i = 0 to min n (Array.length c.c_rules) - 1 do
        totals.(i) <- totals.(i) + c.c_rules.(i)
      done)
    e.cells;
  totals

let ever_inflated e =
  Hashtbl.fold
    (fun _ c acc -> if c.c_inflations > 0 then acc + 1 else acc)
    e.cells 0

let word_bytes = Sys.word_size / 8

let buckets_json buckets =
  Obs_json.arr
    (Array.to_list buckets
    |> List.mapi (fun i n -> (i, n))
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (i, n) ->
           Obs_json.arr [ Obs_json.int i; Obs_json.int n ]))

(* A cell's ops in one cost class. *)
let class_ops e c cls =
  let acc = ref 0 in
  for i = 0 to min (Array.length e.rule_names) (Array.length c.c_rules) - 1 do
    if e.rule_classes.(i) = cls then acc := !acc + c.c_rules.(i)
  done;
  !acc

let cell_json e (c, ops) =
  let same = class_ops e c Same_epoch
  and epoch = class_ops e c Epoch
  and vc = class_ops e c Vc in
  Obs_json.obj
    [ ("var", Obs_json.str c.c_name);
      ("key", Obs_json.int c.c_key);
      ("ops", Obs_json.int ops);
      ("same_epoch", Obs_json.int same);
      ("epoch", Obs_json.int epoch);
      ("vc", Obs_json.int vc);
      ("fast_frac", Obs_json.float (frac (same + epoch) ops));
      ("inflations", Obs_json.int c.c_inflations);
      ("deflations", Obs_json.int c.c_deflations);
      ("inflated", Obs_json.bool c.c_inflated_now);
      ("rvc_words", Obs_json.int c.c_rvc_words);
      ("samples", Obs_json.int c.c_samples);
      ("ns_per_op",
       if c.c_samples = 0 then Obs_json.null
       else Obs_json.float (c.c_ns /. float_of_int c.c_samples)) ]

let document ?(source = "") ?(tool = "") ?(wall = 0.)
    ?(stats = []) ?(top = 20) (t : t) =
  let base =
    [ ("schema", Obs_json.str schema_version);
      ("source", Obs_json.str source);
      ("tool", Obs_json.str tool);
      ("wall_s", Obs_json.float wall) ]
  in
  match t with
  | None ->
    Obs_json.obj
      (base
      @ [ ("enabled", Obs_json.bool false);
          ("totals",
           Obs_json.obj [ ("accesses", Obs_json.int 0) ]) ])
  | Some e ->
    let acc = accesses t in
    let totals = rules_totals e in
    Obs_json.obj
      (base
      @ [ ("enabled", Obs_json.bool true);
          ("totals",
           Obs_json.obj
             [ ("accesses", Obs_json.int acc);
               ("same_epoch", Obs_json.int e.tot_same);
               ("epoch", Obs_json.int e.tot_epoch);
               ("vc", Obs_json.int e.tot_vc);
               ("fast_frac", Obs_json.float (fast_frac t));
               ("same_epoch_frac", Obs_json.float (same_epoch_frac t));
               ("sync_vc_ops", Obs_json.int e.sync_vc_ops) ]);
          ("rules",
           Obs_json.arr
             (Array.to_list
                (Array.mapi
                   (fun i name ->
                     Obs_json.obj
                       [ ("name", Obs_json.str name);
                         ("class",
                          Obs_json.str
                            (class_to_string e.rule_classes.(i)));
                         ("hits", Obs_json.int totals.(i)) ])
                   e.rule_names)));
          ("census",
           Obs_json.obj
             [ ("taken", Obs_json.bool e.census_taken);
               ("vars", Obs_json.int e.cs_vars);
               ("epoch_only",
                Obs_json.int (e.cs_vars - e.cs_inflated));
               ("inflated", Obs_json.int e.cs_inflated);
               ("ever_inflated", Obs_json.int (ever_inflated e));
               ("inflations", Obs_json.int e.tot_inflations);
               ("deflations", Obs_json.int e.tot_deflations);
               ("state_words", Obs_json.int e.cs_words);
               ("rvc_words", Obs_json.int e.cs_rvc_words);
               ("approx_bytes", Obs_json.int (e.cs_words * word_bytes)) ]);
          ("top_vars",
           Obs_json.arr (List.map (cell_json e) (top_ranked e ~top)));
          ("timing",
           Obs_json.obj
             [ ("stride", Obs_json.int e.stride);
               ("samples", Obs_json.int e.t_samples);
               ("fast_ns_log2", buckets_json e.buckets_fast);
               ("vc_ns_log2", buckets_json e.buckets_vc) ]);
          ("series_points", Obs_json.int e.series_n);
          ("stats",
           Obs_json.obj
             (List.map (fun (k, v) -> (k, Obs_json.int v)) stats)) ])

let write_file ~path ?source ?tool ?wall ?stats ?top t =
  let doc = document ?source ?tool ?wall ?stats ?top t in
  if path = "-" then begin
    Obs_json.to_channel stdout doc;
    print_newline ()
  end
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Obs_json.to_channel oc doc;
        output_char oc '\n')
  end

(* ------------------------------------------------------------------ *)
(* Human panel                                                        *)

let si n =
  let f = float_of_int n in
  if f >= 1e9 then Printf.sprintf "%.2fG" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2fM" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fk" (f /. 1e3)
  else string_of_int n

let pct f = Printf.sprintf "%.1f%%" (100. *. f)

let bytes_si n =
  let f = float_of_int n in
  if f >= 1073741824. then Printf.sprintf "%.2f GiB" (f /. 1073741824.)
  else if f >= 1048576. then Printf.sprintf "%.2f MiB" (f /. 1048576.)
  else if f >= 1024. then Printf.sprintf "%.1f KiB" (f /. 1024.)
  else Printf.sprintf "%d B" n

(* Median bucket of a log2-ns histogram, as ~2^i ns; None when empty. *)
let median_ns buckets =
  let total = Array.fold_left ( + ) 0 buckets in
  if total = 0 then None
  else begin
    let half = (total + 1) / 2 in
    let rec go i seen =
      if i >= Array.length buckets then None
      else begin
        let seen = seen + buckets.(i) in
        if seen >= half then Some (1 lsl i) else go (i + 1) seen
      end
    in
    go 0 0
  end

let render ?(top = 10) ?(source = "") ?(tool = "") (t : t) =
  match t with
  | None -> [ "profile: disabled" ]
  | Some e ->
    let acc = accesses t in
    let header =
      Printf.sprintf "== profile: %s%s =="
        (if source = "" then "(run)" else source)
        (if tool = "" then "" else Printf.sprintf " [%s]" tool)
    in
    let totals_line =
      Printf.sprintf
        "accesses  %s | O(1) %s (same-epoch %s) | VC walks %s | sync-vc %s"
        (si acc)
        (pct (fast_frac t))
        (pct (same_epoch_frac t))
        (pct (frac e.tot_vc acc))
        (si e.sync_vc_ops)
    in
    let totals = rules_totals e in
    let rule_lines =
      Array.to_list
        (Array.mapi
           (fun i name ->
             Printf.sprintf "  %-18s %-10s %10s  %s" name
               (class_to_string e.rule_classes.(i))
               (si totals.(i))
               (pct (frac totals.(i) acc)))
           e.rule_names)
    in
    let census_line =
      if not e.census_taken then "census    (not taken)"
      else
        Printf.sprintf
          "census    %s vars | epoch-only %s (%s) | inflated now %d | \
           ever %d | inflations %d / deflations %d"
          (si e.cs_vars)
          (si (e.cs_vars - e.cs_inflated))
          (pct (frac (e.cs_vars - e.cs_inflated) e.cs_vars))
          e.cs_inflated (ever_inflated e) e.tot_inflations
          e.tot_deflations
    in
    let memory_line =
      if not e.census_taken then "shadow    (no census)"
      else
        Printf.sprintf "shadow    ~%s (read-VCs %s)"
          (bytes_si (e.cs_words * word_bytes))
          (bytes_si (e.cs_rvc_words * word_bytes))
    in
    let timing_line =
      let med label buckets =
        match median_ns buckets with
        | None -> Printf.sprintf "%s ~-" label
        | Some ns -> Printf.sprintf "%s ~%sns" label (si ns)
      in
      Printf.sprintf "timing    %s samples @ stride %d | %s | %s"
        (si e.t_samples) e.stride
        (med "O(1) p50" e.buckets_fast)
        (med "vc p50" e.buckets_vc)
    in
    let var_header = "top variables by detector ops:" in
    let var_lines =
      top_ranked e ~top
      |> List.mapi (fun i (c, ops) ->
             let vc = class_ops e c Vc in
             Printf.sprintf
               "  %2d  %-12s %10s  fast %-6s vc %-6s infl %d%s%s"
               (i + 1) c.c_name (si ops)
               (pct (frac (ops - vc) ops))
               (si vc) c.c_inflations
               (if c.c_inflated_now then " [inflated]" else "")
               (if c.c_samples > 0 then
                  Printf.sprintf "  ~%.0fns/op"
                    (c.c_ns /. float_of_int c.c_samples)
                else ""))
    in
    (header :: totals_line :: rule_lines)
    @ [ census_line; memory_line; timing_line; var_header ]
    @ var_lines
