(* Tests for events, traces, the builder and the textual format. *)

let e_rd t x = Event.Read { t; x = Var.scalar x }
let e_wr t x = Event.Write { t; x = Var.scalar x }

let test_event_classify () =
  Alcotest.(check bool) "read is access" true (Event.is_access (e_rd 0 0));
  Alcotest.(check bool) "acquire is sync" true
    (Event.is_sync (Event.Acquire { t = 0; m = 1 }));
  Alcotest.(check bool) "txn is neither" false
    (Event.is_access (Event.Txn_begin { t = 0 })
    || Event.is_sync (Event.Txn_begin { t = 0 }));
  Alcotest.(check (option int)) "tid of read" (Some 3)
    (Event.tid (e_rd 3 0));
  Alcotest.(check (option int)) "tid of barrier" None
    (Event.tid (Event.Barrier_release { threads = [ 1; 2 ] }))

let test_event_parse_roundtrip () =
  let cases =
    [ "rd(1,x3)"; "wr(0,x2.5)"; "acq(2,m1)"; "rel(2,m1)"; "fork(0,1)";
      "join(0,1)"; "vrd(1,v0)"; "vwr(1,v0)"; "barrier(1,2,3)"; "begin(4)";
      "end(4)"; "rd(4095,x4194303.65535)" ]
  in
  List.iter
    (fun s ->
      match Event.of_string s with
      | Ok e -> Alcotest.(check string) s s (Event.to_string e)
      | Error msg -> Alcotest.failf "%s: %s" s msg)
    cases

let test_event_parse_errors () =
  List.iter
    (fun s ->
      match Event.of_string s with
      | Error _ -> ()
      | Ok e -> Alcotest.failf "%s should not parse (got %s)" s
                  (Event.to_string e))
    [ ""; "rd"; "rd(1)"; "rd(x,1)"; "frobnicate(1,2)"; "rd(1,m3)";
      "acq(1,x3)"; "barrier()"; "rd(1,x3";
      (* ids are non-negative decimal integers that fit their table *)
      "rd(0,x-1)"; "rd(0,x1.70000)"; "rd(-3,x1)"; "acq(0,m-1)";
      "vwr(0,v-1)"; "acq(0,m99999999999999999999)";
      "rd(0,x99999999999999999999)"; "rd(+1,x1)"; "rd(0x1,x1)";
      "rd(1_0,x1)"; "rd(4096,x1)"; "fork(0,4096)"; "barrier(0,4096)";
      "rd(0,x4194304)" ]

let prop_event_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"event to_string/of_string"
       Helpers.gen_event (fun e ->
         match Event.of_string (Event.to_string e) with
         | Ok e' -> Event.equal e e'
         | Error _ -> false))

let test_builder () =
  let b = Trace.Builder.create ~initial_capacity:2 () in
  for i = 0 to 99 do
    Trace.Builder.add b (e_rd 0 i)
  done;
  Alcotest.(check int) "length" 100 (Trace.Builder.length b);
  let tr = Trace.Builder.build b in
  Alcotest.(check int) "trace length" 100 (Trace.length tr);
  Alcotest.(check bool) "order preserved" true
    (Event.equal (Trace.get tr 17) (e_rd 0 17))

let test_counts_and_vars () =
  let tr =
    Trace.of_list
      [ e_rd 0 0; e_wr 0 1; e_rd 0 0; Event.Acquire { t = 0; m = 0 };
        Event.Release { t = 0; m = 0 } ]
  in
  let reads, writes, other = Trace.counts tr in
  Alcotest.(check (triple int int int)) "counts" (2, 1, 2)
    (reads, writes, other);
  Alcotest.(check (list string)) "vars in first-access order" [ "x0"; "x1" ]
    (List.map Var.to_string (Trace.vars tr))

let test_thread_count () =
  let tr =
    Trace.of_list
      [ Event.Fork { t = 0; u = 5 };
        Event.Barrier_release { threads = [ 0; 7 ] } ]
  in
  Alcotest.(check int) "max over fork and barrier" 8 (Trace.thread_count tr)

let test_trace_text_roundtrip () =
  let tr =
    Trace.of_list
      [ Event.Fork { t = 0; u = 1 }; e_wr 0 0; e_rd 1 0;
        Event.Barrier_release { threads = [ 0; 1 ] } ]
  in
  match Trace.of_string (Trace.to_string tr) with
  | Ok tr' ->
    Alcotest.(check (list string)) "roundtrip"
      (List.map Event.to_string (Trace.to_list tr))
      (List.map Event.to_string (Trace.to_list tr'))
  | Error msg -> Alcotest.fail msg

let test_trace_text_comments () =
  match Trace.of_string "# a comment\n\nrd(0,x1)\n  wr(1,x1)  \n" with
  | Ok tr -> Alcotest.(check int) "two events" 2 (Trace.length tr)
  | Error msg -> Alcotest.fail msg

let test_trace_text_errors () =
  let check name text expected =
    Alcotest.(check (result reject string)) name (Error expected)
      (Result.map (fun _ -> ()) (Trace.of_string text))
  in
  check "line number" "# header\nrd(0,x1)\nrd(0,x-1)\n"
    {|line 3: bad rd args in "rd(0,x-1)"|};
  check "tid limit" "rd(4096,x1)"
    {|line 1: tid 4096 exceeds Tid.max = 4095 in "rd(4096,x1)"|};
  check "object limit" "\r\nwr(0,x4194304.1)\r\n"
    ({|line 2: object 4194304 exceeds Var.max_obj = 4194303 in |}
    ^ {|"wr(0,x4194304.1)"|})

(* Decorates the text of [tr] the ways the grammar allows: blank and
   comment lines, CRLF endings, blanks around each event and argument. *)
let noisy_text seed tr =
  let rng = Random.State.make [| seed |] in
  let blank () = [| ""; " "; "\t"; " \t " |].(Random.State.int rng 4) in
  let b = Buffer.create 256 in
  Trace.iter
    (fun e ->
      (match Random.State.int rng 6 with
      | 0 -> Buffer.add_string b (blank () ^ "\n")
      | 1 -> Buffer.add_string b "# rd(0,x1) is a comment\r\n"
      | _ -> ());
      Buffer.add_string b (blank ());
      String.iter
        (function
          | '(' -> Buffer.add_string b ("(" ^ blank ())
          | ',' -> Buffer.add_string b (blank () ^ "," ^ blank ())
          | ')' -> Buffer.add_string b (blank () ^ ")")
          | c -> Buffer.add_char b c)
        (Event.to_string e);
      Buffer.add_string b (blank ());
      Buffer.add_string b (if Random.State.bool rng then "\r\n" else "\n"))
    tr;
  Buffer.contents b

let prop_noisy_text =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"noisy trace text parses back"
       ~print:(fun (tr, seed) -> noisy_text seed tr)
       QCheck2.Gen.(pair Helpers.gen_trace (int_range 0 1_000_000))
       (fun (tr, seed) ->
         match Trace.of_string (noisy_text seed tr) with
         | Ok tr' -> Trace.to_list tr' = Trace.to_list tr
         | Error _ -> false))

(* Event lines with up to three random edits drawn from the grammar's
   own characters and a few it refuses. *)
let gen_line =
  QCheck2.Gen.(
    let* e = Helpers.gen_event in
    let* edits =
      list_size (int_range 0 3)
        (triple (int_range 0 3) nat
           (oneofl (List.of_seq (String.to_seq "(),.#xmv09-+_ \t\rbdq"))))
    in
    let edit s (kind, at, c) =
      let n = String.length s in
      let at = if n = 0 then 0 else at mod n in
      match kind with
      | 0 -> String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at)
      | 1 when n > 0 -> String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
      | 2 when n > 0 -> String.mapi (fun i d -> if i = at then c else d) s
      | _ -> s ^ "9"
    in
    return (List.fold_left edit (Event.to_string e) edits))

let prop_line_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"Event.of_string = one-line trace"
       ~print:(fun l -> l) gen_line (fun l ->
         let skipped =
           let t = String.trim l in
           t = "" || t.[0] = '#'
         in
         match (Event.of_string l, Trace.of_string l) with
         | Ok e, Ok tr -> Trace.to_list tr = [ e ]
         | Error m, Error m' -> m' = "line 1: " ^ m
         | Error _, Ok tr -> skipped && Trace.length tr = 0
         | Ok _, Error _ -> false))

(* Digests of the text form, pinned so that the bytes the printer writes
   (and every trace file written so far) never change. *)
let test_text_pinned () =
  let digest tr = Digest.to_hex (Digest.string (Trace.to_string tr)) in
  let model name =
    match Workloads.find name with
    | Some w -> Workload.trace w
    | None -> Alcotest.failf "no workload %s" name
  in
  List.iter
    (fun (name, tr, expected) ->
      Alcotest.(check string) name expected (digest tr))
    [ ("mtrt", model "mtrt", "9158eb6ca16b49617e03f5bfcca2cc1a");
      ("hedc", model "hedc", "026f8e810e457572fe7b1fed5df71542");
      ("eclipse-debug", model "eclipse-debug",
       "8a6932cc1e1fd75a7d8c169f2502e198");
      ("trace_gen",
       Trace_gen.generate ~seed:42
         { Trace_gen.threads = 4; vars = 8; locks = 3; volatiles = 2;
           length = 200; profile = Trace_gen.Mixed; barriers = true },
       "349c50449d3f8cdce6346e6ba66e59a4") ]

let test_append () =
  let a = Trace.of_list [ e_rd 0 0 ] in
  let b = Trace.of_list [ e_wr 0 1 ] in
  Alcotest.(check int) "append" 2 (Trace.length (Trace.append a b))

let test_var_keys () =
  let x = Var.make ~obj:3 ~field:2 in
  let y = Var.make ~obj:3 ~field:4 in
  Alcotest.(check bool) "fine keys differ" true
    (Var.key Var.Fine x <> Var.key Var.Fine y);
  Alcotest.(check int) "coarse keys equal" (Var.key Var.Coarse x)
    (Var.key Var.Coarse y);
  Alcotest.(check bool) "distinct objects differ coarsely" true
    (Var.key Var.Coarse x <> Var.key Var.Coarse (Var.scalar 4))

let suite =
  ( "trace",
    [ Alcotest.test_case "event classification" `Quick test_event_classify;
      Alcotest.test_case "event parse roundtrip" `Quick
        test_event_parse_roundtrip;
      Alcotest.test_case "event parse errors" `Quick test_event_parse_errors;
      prop_event_roundtrip;
      Alcotest.test_case "builder" `Quick test_builder;
      Alcotest.test_case "counts and vars" `Quick test_counts_and_vars;
      Alcotest.test_case "thread count" `Quick test_thread_count;
      Alcotest.test_case "text roundtrip" `Quick test_trace_text_roundtrip;
      Alcotest.test_case "text comments" `Quick test_trace_text_comments;
      Alcotest.test_case "text errors" `Quick test_trace_text_errors;
      prop_noisy_text;
      prop_line_agreement;
      Alcotest.test_case "text pinned" `Quick test_text_pinned;
      Alcotest.test_case "append" `Quick test_append;
      Alcotest.test_case "var keys" `Quick test_var_keys ] )
