(* Bundle_pool tests: flyweight recycling correctness (a recycled slot
   must be indistinguishable from a fresh bundle), high-water isolation
   across generations (the pooled-reuse regression for
   Fifo_queue.recycle), stale in-flight discard across churn, growth
   past the initial capacity, and guard transparency. *)

open Stripe_netsim
open Stripe_core
module Bundle_pool = Stripe_fleet.Bundle_pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rates = [| 10e6; 10e6; 5e6; 2.5e6 |]
let delays = [| 0.001; 0.002; 0.005; 0.010 |]

let config ?(guard = false) ?(discipline = Bundle_pool.Srr) () =
  {
    Bundle_pool.rate_bps = rates;
    prop_delay = delays;
    quanta = Srr.quanta_for_rates ~rates_bps:rates ~quantum_unit:1500 ();
    marker_every = 4;
    guard;
    discipline;
  }

let sizes = [| 200; 1000; 400; 1500; 700; 200; 1200 |]

let push_n pool id n =
  for i = 0 to n - 1 do
    Bundle_pool.push pool id ~size:sizes.(i mod Array.length sizes)
  done

(* --- Fifo_queue.recycle (the pooled-reuse primitive) ---------------- *)

let test_fifo_recycle_resets_high_water () =
  let q = Stripe_packet.Fifo_queue.create () in
  for i = 1 to 10 do
    Stripe_packet.Fifo_queue.push q ~size:100 i
  done;
  Stripe_packet.Fifo_queue.clear q;
  (* [clear] keeps the lifetime maxima by design... *)
  check_int "clear keeps high water (packets)" 10
    (Stripe_packet.Fifo_queue.high_water_packets q);
  check_int "clear keeps high water (bytes)" 1000
    (Stripe_packet.Fifo_queue.high_water_bytes q);
  (* ...so a pool recycling the queue to a new owner must use [recycle],
     or the second bundle reports the first one's maxima as its own. *)
  for i = 1 to 10 do
    Stripe_packet.Fifo_queue.push q ~size:100 i
  done;
  Stripe_packet.Fifo_queue.recycle q;
  check "recycled queue is empty" true (Stripe_packet.Fifo_queue.is_empty q);
  check_int "recycle restarts high water (packets)" 0
    (Stripe_packet.Fifo_queue.high_water_packets q);
  check_int "recycle restarts high water (bytes)" 0
    (Stripe_packet.Fifo_queue.high_water_bytes q);
  Stripe_packet.Fifo_queue.push q ~size:100 1;
  Stripe_packet.Fifo_queue.push q ~size:100 2;
  check_int "new owner's own maximum" 2
    (Stripe_packet.Fifo_queue.high_water_packets q)

(* --- Recycling correctness ------------------------------------------ *)

let test_recycled_slot_replays_like_fresh () =
  (* Generation 1 and generation 2 of the same slot run the same seeded
     workload; every per-bundle number must agree — and agree with a
     never-recycled slot of a fresh pool. *)
  let run_generation () =
    let sim = Sim.create () in
    let pool = Bundle_pool.create ~sim ~initial_capacity:4 (config ()) in
    let id1 = Bundle_pool.acquire pool in
    push_n pool id1 500;
    Sim.run sim;
    let fresh =
      ( Bundle_pool.delivered_packets pool id1,
        Bundle_pool.delivered_bytes pool id1,
        Bundle_pool.rx_high_water_packets pool id1 )
    in
    Bundle_pool.release pool id1;
    let id2 = Bundle_pool.acquire pool in
    check_int "free list reuses the slot" id1 id2;
    push_n pool id2 500;
    Sim.run sim;
    let recycled =
      ( Bundle_pool.delivered_packets pool id2,
        Bundle_pool.delivered_bytes pool id2,
        Bundle_pool.rx_high_water_packets pool id2 )
    in
    (fresh, recycled)
  in
  let fresh, recycled = run_generation () in
  let dp, db, hw = fresh in
  check "generation 1 delivered data" true (dp > 400);
  check "generation 1 buffered at the resequencer" true (hw > 0);
  Alcotest.(check (triple int int int))
    "recycled generation replays the fresh one exactly" fresh recycled;
  check_int "delivered bytes consistent" db (let _, b, _ = recycled in b)

let test_recycle_restarts_rx_high_water () =
  (* The pooled-reuse regression: the resequencer's buffers are
     recycled, not cleared, so the second owner must never see the
     first owner's buffering maxima. *)
  let sim = Sim.create () in
  let pool = Bundle_pool.create ~sim ~initial_capacity:2 (config ()) in
  let id = Bundle_pool.acquire pool in
  push_n pool id 500;
  Sim.run sim;
  check "first owner buffered" true (Bundle_pool.rx_high_water_packets pool id > 0);
  Bundle_pool.release pool id;
  let id2 = Bundle_pool.acquire pool in
  check_int "same slot" id id2;
  check_int "high water restarts with the new owner" 0
    (Bundle_pool.rx_high_water_packets pool id2);
  (* A tiny second workload: the reported maximum must be the small
     bundle's own, not inherited from the 500-packet first owner. *)
  push_n pool id2 8;
  Sim.run sim;
  let hw = Bundle_pool.rx_high_water_packets pool id2 in
  check "second owner's own (small) maximum" true (hw >= 0 && hw < 8)

let test_stale_in_flight_discarded () =
  (* Release with packets still on the wires, immediately hand the slot
     to a new bundle: the predecessor's tail must drain into the void
     while the new owner's stream delivers exactly as if the slot were
     fresh. *)
  let sim = Sim.create () in
  let pool = Bundle_pool.create ~sim ~initial_capacity:2 (config ()) in
  let id = Bundle_pool.acquire pool in
  push_n pool id 200;
  check "packets in flight at release" true
    (Bundle_pool.in_flight_packets pool id > 0);
  Bundle_pool.release pool id;
  check_int "released tail no longer counted in-flight" 0
    (Bundle_pool.in_flight_packets pool id);
  let id2 = Bundle_pool.acquire pool in
  check_int "same slot" id id2;
  check_int "new owner starts with zero delivered" 0
    (Bundle_pool.delivered_packets pool id2);
  push_n pool id2 300;
  Sim.run sim;
  check_int "new owner pushed its own stream" 300
    (Bundle_pool.pushed_packets pool id2);
  (* The dead generation's 200 packets arrived and were discarded: the
     new owner's delivered count is bounded by its own pushes and its
     stream is complete up to the usual blocked tail. *)
  let dp = Bundle_pool.delivered_packets pool id2 in
  check "delivered only the new owner's data" true (dp > 250 && dp <= 300);
  check_int "wires fully drained" 0 (Bundle_pool.in_flight_packets pool id2)

let test_pool_grows_past_initial_capacity () =
  let sim = Sim.create () in
  let pool = Bundle_pool.create ~sim ~initial_capacity:2 (config ()) in
  let ids = Array.init 9 (fun _ -> Bundle_pool.acquire pool) in
  check "capacity doubled as needed" true (Bundle_pool.capacity pool >= 9);
  check_int "all live" 9 (Bundle_pool.live_bundles pool);
  let distinct = List.sort_uniq compare (Array.to_list ids) in
  check_int "ids are distinct" 9 (List.length distinct);
  (* Slots built by a growth mid-run must work like the initial ones. *)
  Array.iter (fun id -> push_n pool id 50) ids;
  Sim.run sim;
  Array.iter
    (fun id ->
      check "grown slot delivers" true (Bundle_pool.delivered_packets pool id > 30))
    ids;
  check_int "pool totals add up" 9
    (Bundle_pool.total_acquired pool)

let test_guard_is_transparent_on_clean_wires () =
  (* The pool's wires are perfect FIFOs, so a guarded fleet must deliver
     exactly what an unguarded one does — the guard rides its in-order
     fast path and its state just recycles with the slot. *)
  let run ~guard =
    let sim = Sim.create () in
    let pool = Bundle_pool.create ~sim ~initial_capacity:2 (config ~guard ()) in
    let id = Bundle_pool.acquire pool in
    push_n pool id 400;
    Sim.run sim;
    let d = Bundle_pool.delivered_packets pool id in
    Bundle_pool.release pool id;
    let id2 = Bundle_pool.acquire pool in
    push_n pool id2 400;
    Sim.run sim;
    (d, Bundle_pool.delivered_packets pool id2)
  in
  let plain = run ~guard:false in
  let guarded = run ~guard:true in
  check "guarded fleet delivers identically" true (plain = guarded);
  check "both generations delivered" true (fst plain > 300 && snd plain > 300)

let suites =
  [
    ( "fleet",
      [
        Alcotest.test_case "fifo recycle resets high water" `Quick
          test_fifo_recycle_resets_high_water;
        Alcotest.test_case "recycled slot replays like fresh" `Quick
          test_recycled_slot_replays_like_fresh;
        Alcotest.test_case "recycle restarts rx high water" `Quick
          test_recycle_restarts_rx_high_water;
        Alcotest.test_case "stale in-flight discarded" `Quick
          test_stale_in_flight_discarded;
        Alcotest.test_case "pool grows past initial capacity" `Quick
          test_pool_grows_past_initial_capacity;
        Alcotest.test_case "guard transparent on clean wires" `Quick
          test_guard_is_transparent_on_clean_wires;
      ] );
  ]
