(* The repository benchmark.

     main.exe --workload ref_clean|ref_gray|fleet_churn --seed N
              --seconds S --trace 0|1

   --trace 0 repeats the workload untraced (set-up + timed run + output
   checks) until S seconds have passed, and reports the end-to-end
   metrics as medians over the repeats. --trace 1 runs it once untraced,
   then traced until S seconds have passed, and reports the per-layer
   metrics. Either way the last line of output is one JSON object; the
   exit code is 1 if any output check failed. See README.md. *)

open Perfbench
module W = Workloads

let workloads = [ "ref_clean"; "ref_gray"; "fleet_churn" ]

let usage msg =
  Printf.eprintf
    "perfbench: %s\n\
     usage: main.exe --workload %s --seed N --seconds S --trace 0|1\n"
    msg (String.concat "|" workloads);
  exit 2

let parse () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage (Printf.sprintf "%s wants an integer, got %S" name v)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      if not (List.mem v workloads) then usage ("unknown workload " ^ v);
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := Some (int_arg "--seed" v);
      go rest
    | "--seconds" :: v :: rest ->
      let s = int_arg "--seconds" v in
      if s < 1 then usage "--seconds must be at least 1";
      seconds := Some s;
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := Some false
      | "1" -> trace := Some true
      | _ -> usage "--trace wants 0 or 1");
      go rest
    | arg :: _ -> usage ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some t, Some tr -> (w, s, t, tr)
  | _ -> usage "all four options are required"

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let elapsed_since t0 = W.s_of_ns (Span.now_ns () - t0)

(* Repeat [f] until [seconds] have passed, at least [min] times. *)
let repeat ~seconds ~min f =
  let t0 = Span.now_ns () in
  let rec go acc n =
    if n >= min && elapsed_since t0 >= float_of_int seconds then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

let untraced workload seed =
  match workload with
  | "ref_clean" -> W.ref_clean ~seed ~traced:false ()
  | "ref_gray" -> W.ref_gray ~seed ~traced:false ()
  | _ -> W.fleet_sharded ~seed ()

let traced workload seed =
  match workload with
  | "ref_clean" -> W.ref_clean ~seed ~traced:true ()
  | "ref_gray" -> W.ref_gray ~seed ~traced:true ()
  | _ -> W.fleet_direct ~seed ~traced:true ~stamp_seq:false ()

(* Checks every run makes beyond each rep's own. *)
let cross_checks failures workload seed (first : W.rep) =
  (* The seed must reach the generator: some deterministic value moves. *)
  let other =
    match workload with
    | "fleet_churn" ->
      let _, r = W.sharded_recorder ~seed:(seed + 1) in
      let pushes, bytes = W.fleet_generate ~seed:(seed + 1) ~bundles:W.fleet_bundles r in
      [ ("pushes", string_of_int pushes); ("pushed_bytes", string_of_int bytes) ]
    | _ -> (untraced workload (seed + 1)).det
  in
  if List.for_all (fun (k, v) -> List.assoc_opt k first.det = Some v) other then
    Checks.fail failures "%s: seeds %d and %d give identical results" workload seed
      (seed + 1);
  (* fleet_churn: Sharded_pool and a directly driven Bundle_pool agree,
     and the FIFO monitor is armed on the direct run. *)
  if workload = "fleet_churn" then begin
    let d = W.fleet_direct ~seed ~traced:false ~stamp_seq:true () in
    List.iter (fun f -> failures := f :: !failures) d.failures;
    Checks.same_det failures ~what:"fleet_churn: direct Bundle_pool vs Sharded_pool"
      d.det first.det
  end

let finish ~correct ~attempted ~failed failures metrics =
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  if not finite then
    failures := "a metric is not a finite number" :: !failures;
  List.iter (fun f -> Printf.printf "FAIL: %s\n" f) (List.rev !failures);
  let correct = correct && !failures = [] in
  let metrics = List.map (fun (k, v) -> (k, if Float.is_finite v then v else -1.0)) metrics in
  print_endline (Report.json ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

(* Share of each rep's wall time spent timing the pace kernel. *)
let pace_share = 0.08

let run_untraced workload seed seconds =
  let failures = ref [] in
  (* After each rep, time the pace kernel for [pace_share] of the rep's
     wall time (at least once), so long reps get as many samples as
     short ones over the run. *)
  let paces = ref [] and rep_paces = ref [] in
  let reps =
    repeat ~seconds ~min:3 (fun () ->
        let t0 = Span.now_ns () in
        let r = untraced workload seed in
        let budget = pace_share *. elapsed_since t0 in
        let rec sample acc spent =
          let p = Pace.sample () in
          paces := p :: !paces;
          if spent +. p < budget then sample (p :: acc) (spent +. p) else p :: acc
        in
        rep_paces := median (sample [] 0.0) :: !rep_paces;
        r)
  in
  let first = List.hd reps in
  let failed = List.length (List.filter (fun (r : W.rep) -> r.failures <> []) reps) in
  List.iter (fun (r : W.rep) -> failures := List.rev_append r.failures !failures) reps;
  (* Determinism: every deterministic value, and the allocation count,
     repeats across the reps of this seed. *)
  List.iteri
    (fun i (r : W.rep) ->
      let what = Printf.sprintf "%s seed %d rep %d vs rep 0" workload seed i in
      Checks.same_det failures ~what r.det first.det;
      if r.minor_words <> first.minor_words then
        Checks.fail failures "%s: minor words differ (%.0f vs %.0f)" what r.minor_words
          first.minor_words)
    reps;
  cross_checks failures workload seed first;
  let per f = median (List.map f reps) in
  let pps (r : W.rep) = float_of_int r.delivered /. r.wall_s in
  let raw_pps = per pps and raw_setup_s = per (fun r -> r.setup_s) in
  let pace_s = median !paces in
  let metrics =
    [
      ("pps", raw_pps *. pace_s /. Pace.reference_s);
      ("minor_words_per_pkt", per (fun r -> r.minor_words /. float_of_int r.delivered));
      ("peak_heap_mb", per (fun r -> r.peak_heap_words *. 8.0 /. 1e6));
      ("setup_s", raw_setup_s *. Pace.reference_s /. pace_s);
    ]
  in
  Printf.printf "perfbench %s seed %d: %d untraced reps\n" workload seed
    (List.length reps);
  List.iteri
    (fun i ((r : W.rep), p) ->
      Printf.printf "  rep %d: %.0f pps, %.4f s set-up, %.4f s timed, %.1f MB heap, pace %.4f s\n" i
        (pps r) r.setup_s r.wall_s (r.peak_heap_words *. 8.0 /. 1e6) p)
    (List.combine reps (List.rev !rep_paces));
  print_endline "medians (pps and setup_s scaled to the reference pace):";
  List.iter
    (fun (k, v) -> print_endline (Report.line k v))
    (metrics
    @ [ ("raw_pps", raw_pps); ("raw_setup_s", raw_setup_s); ("pace_s", pace_s) ]
    @ first.extras);
  finish ~correct:(failed = 0) ~attempted:(List.length reps) ~failed failures metrics

(* Tolerance of the layer-sum check: the time no span covers (the
   driving loop between spans, and calibration error) as a share of
   the traced wall time. *)
let unattributed_tolerance = 0.10

let run_traced workload seed seconds =
  let failures = ref [] in
  Span.calibrate ();
  Printf.printf "perfbench %s seed %d traced: probe %.1f ns, %.2f words per span\n"
    workload seed (Span.probe_ns ()) (Span.probe_words ());
  let base, shard_layer =
    match workload with
    | "fleet_churn" ->
      let s = W.fleet_sharded ~seed () in
      (s, s.layer)
    | _ -> (untraced workload seed, [])
  in
  List.iter (fun f -> failures := f :: !failures) base.failures;
  cross_checks failures workload seed base;
  let untraced_pps = float_of_int base.delivered /. base.wall_s in
  let one () =
    Span.reset ();
    let r = traced workload seed in
    let self = Array.map (fun l -> Span.self_ns_of l) Span.layers in
    let probes = float_of_int !Span.spans *. Span.probe_ns () in
    let wall_ns = r.wall_s *. 1e9 in
    let unattributed = wall_ns -. Array.fold_left ( +. ) 0.0 self -. probes in
    let fd = float_of_int (max 1 r.delivered) in
    let layer k = Option.value ~default:0.0 (List.assoc_opt k r.layer) in
    let events = layer "sim.events_per_pkt" *. fd in
    let timed =
      [
        ("sim.self_ns_per_event", if events > 0.0 then Span.self_ns_of Span.Sim /. events else 0.0);
        ("striper.push_ns", Span.ns_per_call Span.Striper);
        ("striper.push_words", Span.words_per_call Span.Striper);
        ("link.send_ns", Span.ns_per_call Span.Link);
        ("link.send_words", Span.words_per_call Span.Link);
        ("guard.receive_ns", Span.ns_per_call Span.Guard);
        ("reseq.receive_ns", Span.ns_per_call Span.Reseq);
        ("reseq.receive_words", Span.words_per_call Span.Reseq);
        ("health.tick_ns", Span.ns_per_call Span.Health);
        ("obs.sink_ns", Span.ns_per_call Span.Obs);
        ("pool.push_ns", Span.ns_per_call Span.Pool_push);
        ("pool.acquire_ns", Span.ns_per_call Span.Pool_acquire);
        ("pool.release_ns", Span.ns_per_call Span.Pool_release);
        ("pool.push_words", Span.words_per_call Span.Pool_push);
        ("trace.pps", float_of_int r.delivered /. r.wall_s);
        ("trace.unattributed_share", unattributed /. wall_ns);
      ]
    in
    let shares =
      Array.to_list (Array.mapi (fun i l -> (Span.name l, self.(i) /. wall_ns)) Span.layers)
      @ [ ("probes", probes /. wall_ns); ("unattributed", unattributed /. wall_ns) ]
    in
    (r, timed, shares)
  in
  let runs = repeat ~seconds ~min:1 one in
  let r0, _, shares0 = List.hd runs in
  let failed = List.length (List.filter (fun ((r : W.rep), _, _) -> r.failures <> []) runs) in
  List.iter (fun ((r : W.rep), _, _) -> failures := List.rev_append r.failures !failures) runs;
  List.iteri
    (fun i ((r : W.rep), timed, _) ->
      Checks.same_det failures
        ~what:(Printf.sprintf "%s seed %d: traced rep %d vs untraced" workload seed i)
        r.det base.det;
      let u = List.assoc "trace.unattributed_share" timed in
      if Float.abs u > unattributed_tolerance then
        Checks.fail failures
          "%s seed %d: layer-sum check: %.1f%% of traced wall time unattributed (tolerance %.0f%%)"
          workload seed (100.0 *. u) (100.0 *. unattributed_tolerance))
    runs;
  let timed_median k = median (List.map (fun (_, t, _) -> List.assoc k t) runs) in
  let value (m : Report.metric) =
    let k = m.name in
    if k = "trace.overhead" then untraced_pps /. timed_median "trace.pps"
    else
      match List.assoc_opt k (let _, t, _ = List.hd runs in t) with
      | Some _ -> timed_median k
      | None -> (
        match List.assoc_opt k r0.layer with
        | Some v -> v
        | None -> Option.value ~default:0.0 (List.assoc_opt k shard_layer))
  in
  let metrics = List.map (fun (m : Report.metric) -> (m.name, value m)) Report.per_layer in
  Printf.printf "%d traced reps; untraced pps %s; layer shares of traced wall time (rep 0):\n"
    (List.length runs) (Report.number untraced_pps);
  List.iter (fun (l, s) -> Printf.printf "  share %-14s %6.2f%%\n" l (100.0 *. s)) shares0;
  List.iter (fun (k, v) -> print_endline (Report.line k v)) metrics;
  finish ~correct:(failed = 0) ~attempted:(List.length runs) ~failed failures metrics

let () =
  let workload, seed, seconds, trace = parse () in
  if trace then run_traced workload seed seconds else run_untraced workload seed seconds
