(* Tests of the benchmark itself: the metric printer, and that the
   output checks fail a run with a planted FIFO inversion or a dropped
   byte. Workloads run here at reduced size. *)

open Perfbench
module W = Workloads

let failures = ref 0
let passed = ref 0

let check name ok =
  if ok then incr passed
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_printer () =
  let all = Report.end_to_end @ Report.extras @ Report.per_layer in
  let values = List.mapi (fun i (m : Report.metric) -> (m.name, 1.5 +. float_of_int i)) all in
  let json = Report.json ~correct:true ~attempted:3 ~failed:0 values in
  List.iter
    (fun (m : Report.metric) ->
      let line = Report.line m.name 2.25 in
      check
        (Printf.sprintf "printer line names %s with unit %s" m.name m.unit)
        (contains line m.name && contains line (" " ^ m.unit));
      check
        (Printf.sprintf "printer json names %s with unit %s" m.name m.unit)
        (contains json (Printf.sprintf "%S: {\"value\": " m.name)
        && contains json (Printf.sprintf "\"unit\": %S}" m.unit)))
    all;
  check "json starts with the four keys"
    (contains json "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {");
  List.iter
    (fun v -> check (Printf.sprintf "number %h reads back" v) (float_of_string (Report.number v) = v))
    [ 0.1; 1.0 /. 3.0; 959183.09846726630; 1e-9; 123456789.0; 2.0 ** 60.0 ];
  (* Every metric BENCHMARK.json lists is printed with the same unit:
     the first "unit" after the metric's "name" must match. *)
  let bench = read_file "../BENCHMARK.json" in
  let unit_after_name name =
    let key = Printf.sprintf "\"name\": %S" name in
    let rec find s sub i =
      if i + String.length sub > String.length s then None
      else if String.sub s i (String.length sub) = sub then Some (i + String.length sub)
      else find s sub (i + 1)
    in
    match find bench key 0 with
    | None -> None
    | Some i -> (
      match find bench "\"unit\": \"" i with
      | None -> None
      | Some j -> Some (String.sub bench j (String.index_from bench j '"' - j)))
  in
  List.iter
    (fun (m : Report.metric) ->
      check
        (Printf.sprintf "BENCHMARK.json lists %s in %s" m.name m.unit)
        (unit_after_name m.name = Some m.unit))
    (Report.end_to_end @ Report.per_layer)

let small_clean ?plant seed = W.ref_clean ~seed ~traced:false ?plant ~packets:20_000 ()

let test_checks () =
  let clean = small_clean 5 in
  check "ref_clean passes its checks" (clean.failures = []);
  let inv = small_clean ~plant:W.Fifo_inversion 5 in
  check "planted FIFO inversion fails ref_clean"
    (List.exists (fun f -> contains f "out-of-order deliveries") inv.failures
    && List.exists (fun f -> contains f "monitor reports") inv.failures);
  let drop = small_clean ~plant:W.Dropped_byte 5 in
  check "planted dropped byte fails ref_clean"
    (List.exists (fun f -> contains f "delivered packets (benchmark vs resequencer)") drop.failures
    && List.exists (fun f -> contains f "stranded in resequencer") drop.failures);
  let traced = W.ref_clean ~seed:5 ~traced:true ~packets:20_000 () in
  check "traced ref_clean matches untraced" (traced.det = clean.det);
  check "second seed changes ref_clean" ((small_clean 6).det <> clean.det);
  let gray = W.ref_gray ~seed:5 ~traced:false ~episodes:2 () in
  check "short ref_gray passes its checks" (gray.failures = []);
  let gray_traced = W.ref_gray ~seed:5 ~traced:true ~episodes:2 () in
  check "traced ref_gray matches untraced" (gray_traced.det = gray.det);
  let s = W.fleet_sharded ~seed:5 ~bundles:2000 () in
  let d = W.fleet_direct ~seed:5 ~traced:true ~stamp_seq:true ~bundles:2000 () in
  check "small fleet passes its checks" (s.failures = [] && d.failures = []);
  check "direct pool matches Sharded_pool"
    (List.for_all (fun (k, v) -> List.assoc_opt k s.det = Some v) d.det)

let () =
  test_printer ();
  test_checks ();
  Printf.printf "perfbench tests: %d passed, %d failed\n" !passed !failures;
  if !failures > 0 then exit 1
