(* Bench gate tests: the committed-JSON reader on every BENCH_*.json
   shape (fleet's nested [shards] included), lookups bounded to the
   tagged row, the three tolerance kinds at their edges, and the five
   virtual-time benches run end to end — [--check] against each
   committed file must pass, and against a copy with one gated number
   changed in its last printed digit, or one gated key deleted from one
   row, must fail. *)

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* The committed files and the bench binaries, located from the test
   binary (both are dependencies of the test stanza). *)
let build_root = Filename.dirname (Filename.dirname Sys.executable_name)
let committed name = Filename.concat build_root ("BENCH_" ^ name ^ ".json")
let read file = In_channel.with_open_bin file In_channel.input_all

let rows_of name ~key = Gate.rows ~key (read (committed name))

let field rows tag name =
  match List.assoc_opt tag rows with
  | None -> Alcotest.failf "no row %s" tag
  | Some pairs -> List.assoc_opt name pairs

(* --- Reader ----------------------------------------------------------- *)

let test_reader_shapes () =
  let tags name ~key = List.map fst (rows_of name ~key) in
  Alcotest.(check (list string))
    "throughput rows, baseline included"
    [ "boxed-heap@60b89d5"; "calendar"; "calendar-quick" ]
    (tags "throughput" ~key:"engine");
  let count name ~key = List.length (tags name ~key) in
  Alcotest.(check int) "adapt cases" 8 (count "adapt" ~key:"case");
  Alcotest.(check int) "failover configs" 4 (count "failover" ~key:"config");
  Alcotest.(check int) "impair configs" 8 (count "impair" ~key:"config");
  Alcotest.(check int) "gray configs" 4 (count "gray" ~key:"config");
  Alcotest.(check int)
    "disciplines configs" 20
    (count "disciplines" ~key:"config");
  let adapt = rows_of "adapt" ~key:"case" in
  check "adapt bool token" true
    (field adapt "ramp-on-quick" "bound_ok" = Some "true");
  let disc = rows_of "disciplines" ~key:"config" in
  check "never sentinel token" true
    (field disc "rfq_clean" "resync_ms" = Some "-1.000");
  let thr = rows_of "throughput" ~key:"engine" in
  check "throughput quick words/pkt" true
    (field thr "calendar-quick" "minor_words_per_packet" = Some "14.40")

let test_reader_nested_shards () =
  let fleet = rows_of "fleet" ~key:"engine" in
  Alcotest.(check (list string))
    "fleet rows, shard objects excluded"
    [ "calendar"; "calendar-quick"; "calendar-d2"; "calendar-quick-d2" ]
    (List.map fst fleet);
  (* The d2 row's own fields, not its shards' identically named ones. *)
  check "row delivered" true
    (field fleet "calendar-quick-d2" "delivered" = Some "690258");
  check "row wall_s" true
    (field fleet "calendar-quick-d2" "wall_s" = Some "0.1964");
  check "single-domain words/pkt" true
    (field fleet "calendar-quick" "minor_words_per_packet" = Some "3.84");
  check "d2 words/pkt, the row's own" true
    (field fleet "calendar-quick-d2" "minor_words_per_packet" = Some "1.75");
  check "field after shards" true
    (field fleet "calendar-quick-d2" "shards" <> None);
  check "no shard key on the row" true
    (field fleet "calendar-quick-d2" "generations" = None)

let test_reader_bounded_to_row () =
  let s =
    {|{"rows": [
  {"config":"a","x":1},
  {"config":"b","x":2,"y":3}
]}|}
  in
  let rows = Gate.rows ~key:"config" s in
  check "missing key is missing, not the next row's" true
    (field rows "a" "y" = None);
  check_str "own key" "2" (Option.get (field rows "b" "x"))

(* --- Tolerance kinds ---------------------------------------------------- *)

let ok f v committed = fst (Gate.judge f v committed)

let test_exact () =
  let ms = Gate.float "resync_ms" "%.3f" Fun.id in
  check "committed value" true (ok ms 0.36 "0.360");
  check "last digit up" false (ok ms 0.361 "0.360");
  check "last digit down" false (ok ms 0.359 "0.360");
  check "never sentinel" true (ok ms (-1.0) "-1.000");
  check "never vs zero" false (ok ms 0.0 "-1.000");
  let n = Gate.int "delivered" Fun.id in
  check "int committed" true (ok n 10001 "10001");
  check "int off by one" false (ok n 10002 "10001");
  let b = Gate.bool "bound_ok" Fun.id in
  check "bool committed" true (ok b true "true");
  check "bool flipped" false (ok b false "true")

let test_band () =
  let w = Gate.float ~kind:Gate.Band "minor_words_per_packet" "%.2f" Fun.id in
  let c = 29.79 in
  let lo = c *. (1.0 -. Gate.band) and hi = c *. (1.0 +. Gate.band) in
  check "committed value" true (ok w c "29.79");
  check "upper edge" true (ok w hi "29.79");
  check "past upper edge" false (ok w (Float.succ hi) "29.79");
  check "lower edge" true (ok w lo "29.79");
  check "past lower edge" false (ok w (Float.pred lo) "29.79")

let test_floor () =
  let pps = Gate.float ~kind:Gate.Floor "pps" "%.1f" Fun.id in
  let c = 1481766.8 in
  let lo = c *. (1.0 -. Gate.floor) in
  check "committed value" true (ok pps c "1481766.8");
  check "faster is fine" true (ok pps (10.0 *. c) "1481766.8");
  check "floor edge" true (ok pps lo "1481766.8");
  check "past floor edge" false (ok pps (Float.pred lo) "1481766.8")

let test_missing_key_fails () =
  let file = Filename.temp_file "gate" ".json" in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        {|{"configs": [
  {"config":"full","delivered":10},
  {"config":"other","delivered":10,"resync_ms":0.000}
]}|});
  let fields =
    Gate.[ int "delivered" fst; float "resync_ms" "%.3f" snd ]
  in
  let before = !Gate.failures in
  Gate.check file ~key:"config" fields [ ("other", (10, 0.0)) ];
  check "complete row passes" true (!Gate.failures = before);
  Gate.check file ~key:"config" fields [ ("full", (10, 0.0)) ];
  check "key missing from its row fails" true (!Gate.failures = before + 1);
  Gate.check file ~key:"config" fields [ ("absent", (10, 0.0)) ];
  check "missing row fails" true (!Gate.failures > before + 1);
  Gate.failures := before;
  Sys.remove file

(* --- The virtual-time benches against committed and planted files ------ *)

let index_of s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

(* A copy of [src] with [field] of the row tagged [tag] rewritten by
   [edit] (rows are one line each). *)
let plant ~src ~key ~tag ~field edit =
  let row = Printf.sprintf "{\"%s\":\"%s\"," key tag in
  let name = Printf.sprintf ",\"%s\":" field in
  let plant_line line =
    match (index_of line row, index_of line name) with
    | Some _, Some a ->
      let v = a + String.length name in
      let e = ref v in
      while line.[!e] <> ',' && line.[!e] <> '}' do
        incr e
      done;
      String.sub line 0 a
      ^ edit name (String.sub line v (!e - v))
      ^ String.sub line !e (String.length line - !e)
    | _ -> line
  in
  let s = read src in
  let planted =
    String.concat "\n" (List.map plant_line (String.split_on_char '\n' s))
  in
  if planted = s then Alcotest.failf "nothing planted in %s" src;
  let file = Filename.temp_file "planted" ".json" in
  Out_channel.with_open_bin file (fun oc -> output_string oc planted);
  file

let bump_last_digit name token =
  let l = String.length token - 1 in
  let d = Char.code token.[l] - Char.code '0' in
  name ^ String.sub token 0 l ^ string_of_int ((d + 1) mod 10)

let run_bench bench args file =
  let exe = Filename.concat build_root ("bench/exp_" ^ bench ^ ".exe") in
  Sys.command
    (Filename.quote_command exe ~stdout:Filename.null ~stderr:Filename.null
       (args @ [ "--check"; file ]))

let bench_case (bench, args, key, tag, field) =
  Alcotest.test_case bench `Quick (fun () ->
      let src = committed bench in
      Alcotest.(check int) "committed file passes" 0 (run_bench bench args src);
      let changed = plant ~src ~key ~tag ~field bump_last_digit in
      Alcotest.(check int)
        (Printf.sprintf "%s %s changed in its last digit fails" tag field)
        1 (run_bench bench args changed);
      let deleted = plant ~src ~key ~tag ~field (fun _ _ -> "") in
      Alcotest.(check int)
        (Printf.sprintf "%s %s deleted fails" tag field)
        1 (run_bench bench args deleted);
      Sys.remove changed;
      Sys.remove deleted)

let suites =
  [
    ( "gate",
      [
        Alcotest.test_case "reader on committed shapes" `Quick
          test_reader_shapes;
        Alcotest.test_case "reader skips nested shards" `Quick
          test_reader_nested_shards;
        Alcotest.test_case "lookup bounded to its row" `Quick
          test_reader_bounded_to_row;
        Alcotest.test_case "exact" `Quick test_exact;
        Alcotest.test_case "band" `Quick test_band;
        Alcotest.test_case "floor" `Quick test_floor;
        Alcotest.test_case "missing committed key fails" `Quick
          test_missing_key_fails;
      ] );
    ( "gate-bench",
      List.map bench_case
        [
          ("adapt", [ "--quick" ], "case", "step-on-quick", "share_error");
          ("failover", [], "config", "full", "resync_ms");
          ("impair", [], "config", "reorder_dup_corrupt_guard", "peak_buf");
          ("gray", [], "config", "health", "detect_ms");
          ("disciplines", [], "config", "rfq_clean", "resync_ms");
        ] );
  ]
