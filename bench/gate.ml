(* The bench gate: writes, reads back and checks the committed
   BENCH_*.json anchors. A bench reports rows {"<key>":"<tag>",...} and
   declares them as a field list — name, printf format, tolerance kind —
   which drives the JSON writer, the printed table and the check.
   [--check FILE] compares each gated field with the committed token of
   the same field in the row with the same tag:

   - Exact: prints identically under the field's format. Every
     virtual-time (seeded, deterministic) field, the -1 "never"
     sentinel included.
   - Band: within +-1%. Allocation per packet, deterministic per build.
   - Floor: at least 70%. Single-domain wall-clock pps, whose noise on
     a shared machine is one-sided.
   - Report: written, never checked.

   A committed row or gated key that is missing fails, so the gate
   cannot pass vacuously. *)

type kind = Exact | Band | Floor | Report

type 'r field = {
  name : string;
  kind : kind;
  get : 'r -> float;
  print : float -> string;
}

let float ?(kind = Exact) name fmt get =
  { name; kind; get; print = Printf.sprintf fmt }

let int ?kind name get = float ?kind name "%.0f" (fun r -> float_of_int (get r))

let bool name get =
  {
    name;
    kind = Exact;
    get = (fun r -> if get r then 1.0 else 0.0);
    print = (fun v -> string_of_bool (v > 0.5));
  }

let band = 0.01
let floor = 0.30
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      flush stdout;
      Printf.eprintf "  FAIL: %s\n%!" msg;
      incr failures)
    fmt

let finish () = if !failures > 0 then exit 1

(* The fastest of [repeat] runs: wall-clock noise is one-sided. *)
let best_of ~repeat ~pps run =
  let best = ref (run ()) in
  for _ = 2 to repeat do
    let r = run () in
    if pps r > pps !best then best := r
  done;
  !best

type flag =
  | Switch of string * (unit -> unit)
  | Value of string * string * (string -> unit)  (* flag, metavar, setter *)

type opts = { json : string option; check : string option }

(* [Sys.argv] against the bench's [flags] plus [--json FILE] and, unless
   [~check:false], [--check FILE]; anything else exits 2 with usage. *)
let parse ?(check = true) name flags =
  let json = ref None and check_file = ref None in
  let flags =
    flags
    @ Value ("--json", "FILE", fun f -> json := Some f)
      ::
      (if check then
         [ Value ("--check", "FILE", fun f -> check_file := Some f) ]
       else [])
  in
  let usage got =
    let show = function Switch (f, _) -> f | Value (f, m, _) -> f ^ " " ^ m in
    Printf.eprintf "usage: %s %s (got %s)\n" name
      (String.concat " " (List.map (fun f -> "[" ^ show f ^ "]") flags))
      got;
    exit 2
  in
  let named arg = function Switch (f, _) | Value (f, _, _) -> f = arg in
  let rec go = function
    | [] -> ()
    | arg :: rest -> (
      match (List.find_opt (named arg) flags, rest) with
      | Some (Switch (_, set)), rest ->
        set ();
        go rest
      | Some (Value (_, _, set)), v :: rest ->
        set v;
        go rest
      | _ -> usage arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  { json = !json; check = !check_file }

(* [extra] appends raw "key":value pairs a field list cannot express. *)
let row ~key ~tag ?(extra = []) fields r =
  let pair f = Printf.sprintf "\"%s\":%s" f.name (f.print (f.get r)) in
  Printf.sprintf "{%s}"
    (String.concat ","
       (Printf.sprintf "\"%s\":\"%s\"" key tag :: List.map pair fields @ extra))

let write file ~scenario ?(header = []) ~array rows =
  Out_channel.with_open_bin file (fun oc ->
      Printf.fprintf oc "{\n  \"scenario\": \"%s\",\n" scenario;
      List.iter (fun (k, v) -> Printf.fprintf oc "  \"%s\": %s,\n" k v) header;
      Printf.fprintf oc "  \"%s\": [\n    %s\n  ]\n}\n" array
        (String.concat ",\n    " rows));
  Printf.printf "  wrote %s\n%!" file

(* The rows as a text table, each field as its JSON row prints it. *)
let table ~title ~key fields rows =
  let t =
    Stripe_metrics.Table.create ~title
      ~columns:(key :: List.map (fun f -> f.name) fields)
  in
  List.iter
    (fun (tag, r) ->
      Stripe_metrics.Table.add_row t
        (tag :: List.map (fun f -> f.print (f.get r)) fields))
    rows;
  Stripe_metrics.Table.print t

(* The top-level "key":value pairs of the object opening at [s.[i]],
   unquoted (strings carry no escapes: the writer emits none). Only
   commas at the object's own depth split pairs, so the keys of a nested
   array or object never answer for the row. *)
let parse_object s i =
  let unquote t =
    let t = String.trim t in
    let l = String.length t in
    if l >= 2 && t.[0] = '"' then String.sub t 1 (l - 2) else t
  in
  let add a b acc =
    let p = String.sub s a (b - a) in
    match String.index_opt p ':' with
    | Some c ->
      let v = String.sub p (c + 1) (b - a - c - 1) in
      (unquote (String.sub p 0 c), unquote v) :: acc
    | None -> acc
  in
  let rec go j depth start quoted acc =
    if j >= String.length s then List.rev acc
    else
      let next = go (j + 1) in
      match s.[j] with
      | '"' -> next depth start (not quoted) acc
      | _ when quoted -> next depth start quoted acc
      | '{' | '[' -> next (depth + 1) start quoted acc
      | ('}' | ']') when depth = 1 -> List.rev (add start j acc)
      | '}' | ']' -> next (depth - 1) start quoted acc
      | ',' when depth = 1 -> next depth (j + 1) quoted (add start j acc)
      | _ -> next depth start quoted acc
  in
  go i 0 (i + 1) false []

(* Every row {"<key>":"<tag>",...} in [s], as (tag, pairs). *)
let rows ~key s =
  let needle = Printf.sprintf "{\"%s\":" key in
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length s then List.rev acc
    else if String.sub s i n <> needle then go (i + 1) acc
    else
      let pairs = parse_object s i in
      go (i + 1)
        (match List.assoc_opt key pairs with
        | Some tag -> (tag, pairs) :: acc
        | None -> acc)
  in
  go 0 []

(* Whether [f]'s current value in [r] passes against the committed token,
   and the comparison as one line. *)
let judge f r committed =
  let v = f.get r in
  let shown = f.print v in
  let against rule =
    Printf.sprintf "%s vs committed %s (%s)" shown committed rule
  in
  match (f.kind, float_of_string_opt committed) with
  | (Exact | Report), _ -> (shown = committed, against "exact")
  | Band, Some c ->
    let lo = c *. (1.0 -. band) and hi = c *. (1.0 +. band) in
    (lo <= v && v <= hi, against ("band " ^ f.print lo ^ ".." ^ f.print hi))
  | Floor, Some c ->
    let lo = c *. (1.0 -. floor) in
    (v >= lo, against ("floor " ^ f.print lo))
  | (Band | Floor), None -> (false, against "not a number")

(* Checks each (tag, row) of the current run against the committed row
   with the same tag. *)
let check file ~key fields current =
  if not (Sys.file_exists file) then
    fail "baseline file %s does not exist — regenerate it with --json %s" file
      file
  else
    let committed =
      rows ~key (In_channel.with_open_bin file In_channel.input_all)
    in
    let before = !failures in
    List.iter
      (fun (tag, r) ->
        let pairs = Option.value ~default:[] (List.assoc_opt tag committed) in
        let exact = ref 0 in
        List.iter
          (fun f ->
            match List.assoc_opt f.name pairs with
            | _ when f.kind = Report -> ()
            | None ->
              fail "no committed %S in row %s %S of %s — regenerate it with \
                 --json"
                f.name key tag file
            | Some c ->
              let ok, line = judge f r c in
              if not ok then fail "%s %s %s" tag f.name line
              else if f.kind = Exact then incr exact
              else Printf.printf "  check %s %s %s\n" tag f.name line)
          fields;
        if !exact > 0 then
          Printf.printf "  check %s: %d fields exact\n" tag !exact)
      current;
    if !failures = before then
      Printf.printf "  check passed against %s\n%!" file

(* The tail of a gated bench: [--json] writes the current rows plus any
   rows [more] measures only for the file (a full run embeds the quick
   size, so the committed file supports [--quick --check]); [--check]
   checks the current rows. *)
let emit opts ~key ~scenario ?header ~array ?(more = fun () -> []) fields
    current =
  let row (tag, r) = row ~key ~tag fields r in
  Option.iter
    (fun file ->
      write file ~scenario ?header ~array (List.map row (current @ more ())))
    opts.json;
  Option.iter (fun file -> check file ~key fields current) opts.check
