(* Tests for the CFQ framework and the load-sharing transformation: the
   Figure 2/3 worked example and the executable E <-> E' correspondence
   at the heart of Theorem 3.1's proof. *)

open Stripe_core

let srr_cfq quanta =
  Cfq.of_deficit ~name:"SRR" (fun () -> Srr.create ~quanta ())

(* The paper's packets: identifier, size. *)
let a = (550, "a")
let b = (150, "b")
let c = (300, "c")
let d = (200, "d")
let e = (400, "e")
let f = (400, "f")

let test_figure2_fair_queue () =
  let cfq = srr_cfq [| 500; 500 |] in
  let queues = [| [ a; b; c ]; [ d; e; f ] |] in
  match Cfq.fair_queue cfq queues with
  | None -> Alcotest.fail "execution left the backlogged regime"
  | Some order ->
    Alcotest.(check (list string)) "Figure 2 service order"
      [ "a"; "d"; "e"; "b"; "c"; "f" ]
      (List.map (fun (_, (_, id)) -> id) order)

let test_figure3_load_share () =
  let cfq = srr_cfq [| 500; 500 |] in
  let input = [ a; d; e; b; c; f ] in
  let dispatch = Cfq.load_share cfq input in
  Alcotest.(check (list (pair int string))) "Figure 3 dispatch"
    [ (0, "a"); (1, "d"); (1, "e"); (0, "b"); (0, "c"); (1, "f") ]
    (List.map (fun (ch, (_, id)) -> (ch, id)) dispatch)

let test_outputs_by_channel () =
  let dispatch = [ (0, "x"); (1, "y"); (0, "z") ] in
  let grouped = Cfq.outputs_by_channel ~n:2 dispatch in
  Alcotest.(check (list string)) "channel 0" [ "x"; "z" ] grouped.(0);
  Alcotest.(check (list string)) "channel 1" [ "y" ] grouped.(1)

let test_fair_queue_detects_starvation () =
  (* Queue 1 empty while queue 0 still holds packets: RR immediately
     selects the exhausted queue in round 0 -> non-backlogged. *)
  let cfq = Cfq.of_deficit ~name:"RR" (fun () -> Rr.create ~n:2 ()) in
  let queues = [| [ (100, "p"); (100, "q") ]; [] |] in
  Alcotest.(check bool) "returns None outside backlogged regime" true
    (Cfq.fair_queue cfq queues = None)

(* Theorem 3.1's correspondence, executable: striping an input and then
   fair-queuing the per-channel outputs reproduces the input exactly. *)
let duality_roundtrip cfq input =
  let dispatch = Cfq.load_share cfq input in
  let queues = Cfq.outputs_by_channel ~n:cfq.Cfq.n dispatch in
  match Cfq.fair_queue cfq queues with
  | None -> false
  | Some order -> List.map snd order = input

let test_duality_paper_example () =
  Alcotest.(check bool) "paper example round-trips" true
    (duality_roundtrip (srr_cfq [| 500; 500 |]) [ a; d; e; b; c; f ])

let sizes_gen = QCheck.(list_of_size (Gen.int_range 0 300) (int_range 1 1500))

let prop_duality_srr =
  QCheck.Test.make ~name:"duality: SRR load_share inverts via fair_queue"
    ~count:150
    QCheck.(pair (int_range 1 5) sizes_gen)
    (fun (n, sizes) ->
      let quanta = Array.make n 1500 in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip (srr_cfq quanta) input)

let prop_duality_uneven_quanta =
  QCheck.Test.make ~name:"duality holds for weighted quanta" ~count:150
    sizes_gen
    (fun sizes ->
      let cfq = Cfq.of_deficit ~name:"WSRR" (fun () ->
          Srr.create ~quanta:[| 1500; 3000; 4500 |] ())
      in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip cfq input)

let prop_duality_rr =
  QCheck.Test.make ~name:"duality holds for RR" ~count:100 sizes_gen
    (fun sizes ->
      let cfq = Cfq.of_deficit ~name:"RR" (fun () -> Rr.create ~n:3 ()) in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip cfq input)

let prop_duality_seeded_random =
  QCheck.Test.make ~name:"duality holds for seeded RFQ" ~count:100 sizes_gen
    (fun sizes ->
      let cfq = Cfq.seeded_random ~name:"RFQ" ~n:4 ~seed:31 in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip cfq input)

(* The audit the fixed-interleaving tests above miss: [Srr.for_rates]
   derives quanta by scaling and rounding a rate vector (clamping to
   >= 1, inflating to restore Quantum_i >= Max), so the engine the
   duality runs over is itself a function of arbitrary float inputs.
   Random rate skews x random size sequences probe exactly the
   clamp/rounding corners. *)
let rates_gen = QCheck.(list_of_size (Gen.int_range 1 5) (int_range 1 40))

let rates_bps_of mbps =
  Array.of_list (List.map (fun m -> 1e6 *. float_of_int m) mbps)

let prop_duality_for_rates =
  QCheck.Test.make
    ~name:"duality: for_rates-derived quanta under random sizes" ~count:200
    QCheck.(pair rates_gen sizes_gen)
    (fun (mbps, sizes) ->
      let rates_bps = rates_bps_of mbps in
      let cfq =
        Cfq.of_deficit ~name:"SRR/for_rates" (fun () ->
            Srr.for_rates ~max_packet:1500 ~rates_bps ~quantum_unit:1500 ())
      in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip cfq input)

let prop_duality_sprinklers =
  QCheck.Test.make
    ~name:"duality holds for Sprinklers (seeded permuted rounds)" ~count:200
    QCheck.(triple small_nat rates_gen sizes_gen)
    (fun (seed, mbps, sizes) ->
      let rates_bps = rates_bps_of mbps in
      let cfq =
        Cfq.of_deficit ~name:"Sprinklers" (fun () ->
            Sprinklers.for_rates ~max_packet:1500 ~seed ~rates_bps
              ~quantum_unit:1500 ())
      in
      let input = List.mapi (fun i size -> (size, i)) sizes in
      duality_roundtrip cfq input)

let test_seeded_random_is_causal () =
  (* Two instances from the same configuration make identical decisions:
     exactly what lets a seed-sharing receiver simulate the sender. *)
  let cfq = Cfq.seeded_random ~name:"RFQ" ~n:5 ~seed:7 in
  let i1 = cfq.Cfq.fresh () and i2 = cfq.Cfq.fresh () in
  let picks inst =
    List.init 200 (fun _ ->
        let ch = inst.Cfq.select () in
        inst.Cfq.update ~size:100;
        ch)
  in
  Alcotest.(check (list int)) "identical selection streams" (picks i1) (picks i2)

let test_seeded_random_select_stable () =
  let cfq = Cfq.seeded_random ~name:"RFQ" ~n:5 ~seed:7 in
  let inst = cfq.Cfq.fresh () in
  let first = inst.Cfq.select () in
  Alcotest.(check int) "repeated select stable before update" first
    (inst.Cfq.select ());
  inst.Cfq.update ~size:1;
  ignore (inst.Cfq.select ())

(* §5 reset-barrier degenerate cases. The reseed point must discard a
   draw cached by a [select] whose packet never dispatched (a packet
   selected but still queued when the barrier fired): keeping it would
   leave the sender consuming draw k while the receiver's replay
   consumes draw k+1, permanently offset. *)
let test_seeded_random_reset_discards_cached_draw () =
  let cfq = Cfq.seeded_random ~name:"RFQ" ~n:5 ~seed:7 in
  let sender = cfq.Cfq.fresh () in
  for _ = 1 to 17 do
    ignore (sender.Cfq.select ());
    sender.Cfq.update ~size:100
  done;
  (* A selection that never reaches [update]... *)
  ignore (sender.Cfq.select ());
  (* ...then the barrier. *)
  sender.Cfq.reset ();
  (* The receiver joins the barrier by restarting its replay at s0. *)
  let receiver = cfq.Cfq.fresh () in
  let stream inst =
    List.init 100 (fun _ ->
        let c = inst.Cfq.select () in
        inst.Cfq.update ~size:100;
        c)
  in
  Alcotest.(check (list int)) "post-barrier selection streams aligned"
    (stream receiver) (stream sender)

let test_seeded_random_single_channel_reset () =
  (* n = 1: every draw maps to channel 0, so a desync would be silent —
     the reset still must not raise, must stay on channel 0, and must
     keep sender and replay draw-aligned (observable once the membership
     grows back, covered by the n > 1 test above). *)
  let cfq = Cfq.seeded_random ~name:"RFQ" ~n:1 ~seed:3 in
  let inst = cfq.Cfq.fresh () in
  ignore (inst.Cfq.select ());
  inst.Cfq.reset ();
  for _ = 1 to 50 do
    Alcotest.(check int) "single channel" 0 (inst.Cfq.select ());
    inst.Cfq.update ~size:10
  done;
  inst.Cfq.reset ();
  Alcotest.(check int) "still channel 0 after second barrier" 0
    (inst.Cfq.select ())

let test_seeded_random_spread () =
  let cfq = Cfq.seeded_random ~name:"RFQ" ~n:4 ~seed:11 in
  let inst = cfq.Cfq.fresh () in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let ch = inst.Cfq.select () in
    inst.Cfq.update ~size:100;
    counts.(ch) <- counts.(ch) + 1
  done;
  Alcotest.(check bool) "RFQ spreads across all channels" true
    (Array.for_all (fun c -> c > 800 && c < 1200) counts)

let suites =
  [
    ( "cfq",
      [
        Alcotest.test_case "figure 2 fair queuing" `Quick test_figure2_fair_queue;
        Alcotest.test_case "figure 3 load sharing" `Quick test_figure3_load_share;
        Alcotest.test_case "outputs_by_channel" `Quick test_outputs_by_channel;
        Alcotest.test_case "starvation detected" `Quick
          test_fair_queue_detects_starvation;
        Alcotest.test_case "duality paper example" `Quick test_duality_paper_example;
        Alcotest.test_case "seeded random causal" `Quick test_seeded_random_is_causal;
        Alcotest.test_case "seeded random stable select" `Quick
          test_seeded_random_select_stable;
        Alcotest.test_case "seeded random spread" `Quick test_seeded_random_spread;
        Alcotest.test_case "seeded random reset discards cached draw" `Quick
          test_seeded_random_reset_discards_cached_draw;
        Alcotest.test_case "seeded random n=1 reset" `Quick
          test_seeded_random_single_channel_reset;
        QCheck_alcotest.to_alcotest prop_duality_srr;
        QCheck_alcotest.to_alcotest prop_duality_uneven_quanta;
        QCheck_alcotest.to_alcotest prop_duality_rr;
        QCheck_alcotest.to_alcotest prop_duality_seeded_random;
        QCheck_alcotest.to_alcotest prop_duality_for_rates;
        QCheck_alcotest.to_alcotest prop_duality_sprinklers;
      ] );
  ]
