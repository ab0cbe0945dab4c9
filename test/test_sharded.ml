(* Tests for the sharded-fleet layer: the merge algebra must be
   partition-invariant (counters, recovery intervals, monitor verdicts),
   and Sharded_pool must honor its determinism contract — domains = 1
   replays exactly like a directly driven single pool, and any domain
   count merges to the same protocol aggregates. *)

open Stripe_netsim
module Counters = Stripe_obs.Counters
module Event = Stripe_obs.Event
module Monitor = Stripe_obs.Monitor
module Recovery = Stripe_metrics.Recovery
module Bundle_pool = Stripe_fleet.Bundle_pool
module Sharded_pool = Stripe_fleet.Sharded_pool

let n_channels = 4

(* Channel-scoped event kinds only: partitioning by channel keeps each
   channel's whole stream (including the clamped buffered-bytes gauge
   arithmetic) inside one registry, which is the exactness condition
   Counters.merge_into documents. *)
let kinds =
  [|
    Event.Enqueue; Event.Deliver; Event.Transmit; Event.Drop; Event.Arrival;
    Event.Marker_sent; Event.Marker_applied; Event.Skip; Event.Channel_down;
    Event.Watchdog_skip; Event.Suspend; Event.Dup_discard; Event.Quarantine;
  |]

let counters_equal a b =
  Counters.n_channels a = Counters.n_channels b
  && Counters.resets a = Counters.resets b
  && Counters.rounds a = Counters.rounds b
  && Counters.events_seen a = Counters.events_seen b
  && Counters.no_channel_drops a = Counters.no_channel_drops b
  && List.for_all
       (fun c -> Counters.channel a c = Counters.channel b c)
       (List.init (Counters.n_channels a) Fun.id)

let prop_counters_partition_merge =
  QCheck.Test.make
    ~name:"counters: merge over any channel partition = unsharded" ~count:100
    QCheck.(
      pair (int_range 1 4)
        (small_list
           (triple
              (int_range 0 (Array.length kinds - 1))
              (int_range 0 (n_channels - 1))
              (int_range 1 1500))))
    (fun (shards, evs) ->
      let whole = Counters.create ~n:n_channels in
      let parts = Array.init shards (fun _ -> Counters.create ~n:n_channels) in
      List.iteri
        (fun i (k, c, size) ->
          let e =
            Event.v ~channel:c ~size ~seq:i
              ~time:(float_of_int i *. 1e-3)
              kinds.(k)
          in
          Counters.observe whole e;
          Counters.observe parts.(c mod shards) e)
        evs;
      counters_equal whole (Counters.merged (Array.to_list parts)))

let prop_recovery_partition_merge =
  QCheck.Test.make ~name:"recovery: interval union is partition-invariant"
    ~count:100
    QCheck.(
      pair (int_range 1 4)
        (small_list (pair (int_range 0 1000) (int_range 1 150))))
    (fun (shards, raw) ->
      let outages =
        List.map
          (fun (s, d) ->
            (float_of_int s /. 10.0, float_of_int (s + d) /. 10.0))
          raw
      in
      let parts = Array.make shards [] in
      List.iteri (fun i iv -> parts.(i mod shards) <- iv :: parts.(i mod shards)) outages;
      Recovery.merge_parts [ outages ]
      = Recovery.merge_parts (Array.to_list parts))

let test_verdict_merge () =
  let a =
    {
      Monitor.violations = 2;
      seq_inversions = 5;
      first_violation = Some (3.0, "a");
      events_seen = 100;
    }
  in
  let b =
    {
      Monitor.violations = 1;
      seq_inversions = 0;
      first_violation = Some (1.5, "b");
      events_seen = 40;
    }
  in
  let c =
    {
      Monitor.violations = 0;
      seq_inversions = 7;
      first_violation = None;
      events_seen = 1;
    }
  in
  let m = Monitor.merged_verdict [ a; b; c ] in
  Alcotest.(check int) "violations sum" 3 m.Monitor.violations;
  Alcotest.(check int) "inversions sum" 12 m.Monitor.seq_inversions;
  Alcotest.(check int) "events sum" 141 m.Monitor.events_seen;
  (match m.Monitor.first_violation with
  | Some (t, msg) ->
    Alcotest.(check (float 1e-9)) "earliest violation time" 1.5 t;
    Alcotest.(check string) "earliest violation message" "b" msg
  | None -> Alcotest.fail "merged verdict lost the first violation");
  let b' = { b with Monitor.first_violation = Some (3.0, "b") } in
  (match (Monitor.merged_verdict [ a; b' ]).Monitor.first_violation with
  | Some (_, msg) -> Alcotest.(check string) "tie keeps the left shard" "a" msg
  | None -> Alcotest.fail "tie merge lost the violation");
  Alcotest.check_raises "empty merge rejected"
    (Invalid_argument "Monitor.merged_verdict: empty list") (fun () ->
      ignore (Monitor.merged_verdict []))

(* ---- Sharded_pool end-to-end ---- *)

let fleet_config () =
  let rates = [| 10e6; 10e6; 5e6; 2.5e6 |] in
  let delays = [| 0.001; 0.002; 0.005; 0.010 |] in
  let quanta =
    Stripe_core.Srr.quanta_for_rates ~rates_bps:rates ~quantum_unit:1500 ()
  in
  {
    Bundle_pool.rate_bps = rates;
    prop_delay = delays;
    quanta;
    marker_every = 4;
    guard = false;
    discipline = Bundle_pool.Srr;
  }

type op =
  | Acquire of float * int
  | Release of float * int
  | Push of float * int * int

(* Scripted churn with staggered releases so slots recycle mid-run. The
   script's RNG never reads pool state, so every recorder sees the same
   op sequence; ids come back from the recorder's shadow allocator. *)
let record_script sp =
  let rng = Rng.create 5 in
  let ops = ref [] in
  let live = ref [] in
  let t = ref 0.0 in
  for _ = 1 to 600 do
    t := !t +. 0.0015;
    let nlive = List.length !live in
    if nlive = 0 || (nlive < 10 && Rng.int rng 4 = 0) then begin
      let id = Sharded_pool.acquire sp ~at:!t in
      ops := Acquire (!t, id) :: !ops;
      live := id :: !live
    end
    else if Rng.int rng 12 = 0 then begin
      let i = Rng.int rng nlive in
      let id = List.nth !live i in
      live := List.filteri (fun j _ -> j <> i) !live;
      Sharded_pool.release sp ~at:!t id;
      ops := Release (!t, id) :: !ops
    end
    else begin
      let id = List.nth !live (Rng.int rng nlive) in
      let size = 200 + Rng.int rng 1100 in
      Sharded_pool.push sp ~at:!t id ~size;
      ops := Push (!t, id, size) :: !ops
    end
  done;
  List.rev !ops

(* The same script driven straight into one Bundle_pool — the legacy
   single-pool run the sharded replay must reproduce. Checks on the way
   that the recorder's shadow allocator predicted every slot id. *)
let run_direct ops =
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~rng:(Rng.stream ~seed:33 0) ~sim (fleet_config ())
  in
  List.iter
    (fun op ->
      match op with
      | Acquire (at, id) ->
        Sim.schedule sim ~at (fun () ->
            Alcotest.(check int)
              "shadow allocator predicts the real slot" id
              (Bundle_pool.acquire pool))
      | Release (at, id) ->
        Sim.schedule sim ~at (fun () -> Bundle_pool.release pool id)
      | Push (at, id, size) ->
        Sim.schedule sim ~at (fun () -> Bundle_pool.push pool id ~size))
    ops;
  Sim.run sim;
  ( Bundle_pool.total_delivered_packets pool,
    Bundle_pool.total_delivered_bytes pool,
    Bundle_pool.markers_sent pool )

let test_e2e () =
  let reports =
    List.map
      (fun domains ->
        let sp =
          Sharded_pool.create ~domains ~seed:33 (fleet_config ())
        in
        let ops = record_script sp in
        (ops, Sharded_pool.run sp))
      [ 1; 2; 3 ]
  in
  let ops1, r1 = List.hd reports in
  let direct = run_direct ops1 in
  Alcotest.(check (triple int int int))
    "domains=1 equals the directly driven pool" direct
    Sharded_pool.(r1.delivered_packets, r1.delivered_bytes, r1.markers_sent);
  Alcotest.(check bool) "script delivered packets" true (r1.delivered_packets > 0);
  let gen_key (g : Sharded_pool.gen_report) =
    (g.ordinal, g.slot, g.delivered_packets, g.delivered_bytes)
  in
  List.iter
    (fun (ops, r) ->
      Alcotest.(check bool)
        "recorder is shard-count independent" true (ops = ops1);
      Alcotest.(check (triple int int int))
        "aggregates invariant under sharding"
        Sharded_pool.(r1.delivered_packets, r1.delivered_bytes, r1.markers_sent)
        Sharded_pool.(r.delivered_packets, r.delivered_bytes, r.markers_sent);
      Alcotest.(check bool)
        "per-generation reports identical" true
        (Array.map gen_key r.Sharded_pool.gens
        = Array.map gen_key r1.Sharded_pool.gens))
    (List.tl reports)

(* The churn-shaped event population (dense near cluster + sparse far
   timers) that used to degenerate the calendar's span-derived bucket
   width: with the quantile-derived width the calendar must still pop
   the identical sequence the reference heap does. Each pop reschedules
   one event with a fresh bimodal delay, as a fleet's timers do. *)
let test_calendar_bimodal_equivalence () =
  let heap = Eventq.create () and cal = Calendar_queue.create () in
  let rng = Rng.create 17 in
  let next = ref 0 in
  let schedule_one ~now =
    let delay =
      if Rng.bernoulli rng ~p:0.9 then Rng.exponential rng ~mean:0.01
      else Rng.uniform rng ~lo:1.0 ~hi:5.0
    in
    Eventq.add heap ~time:(now +. delay) !next;
    Calendar_queue.add cal ~time:(now +. delay) !next;
    incr next
  in
  for _ = 1 to 512 do
    schedule_one ~now:0.0
  done;
  let ops = ref 4000 and same = ref true in
  while not (Eventq.is_empty heap) do
    let h = Eventq.pop heap and c = Calendar_queue.pop cal in
    if h <> c then same := false;
    match h with
    | Some (now, _) when !ops > 0 ->
      decr ops;
      schedule_one ~now
    | _ -> ()
  done;
  Alcotest.(check bool)
    "calendar pops the heap's exact sequence on a bimodal population" true
    (!same && Calendar_queue.is_empty cal)

let test_shard_of_bundle () =
  for domains = 1 to 5 do
    for id = 0 to 100 do
      let s = Sharded_pool.shard_of_bundle ~domains id in
      Alcotest.(check bool) "shard in range" true (s >= 0 && s < domains);
      Alcotest.(check int) "assignment is stable" s
        (Sharded_pool.shard_of_bundle ~domains id)
    done
  done;
  let parts = Sharded_pool.split_fleet ~domains:3 ~bundles:200 in
  Alcotest.(check int) "split covers the fleet" 200
    (Array.fold_left (fun a p -> a + Array.length p) 0 parts);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "shards are non-trivially loaded" true
        (Array.length p > 20))
    parts

(* The replay's own cost per op. A one-domain Sharded_pool run is
   measured against the same tape driven into an identically built
   Bundle_pool by one prebuilt event reading a cursor; the pool's work
   and the boxed event times are common to both, so the difference is
   what the replay adds — its setup and one generation report per
   release, spread over the ops — in either build profile. *)
let test_replay_allocation () =
  let config = fleet_config () in
  let sp = Sharded_pool.create ~domains:1 ~seed:21 config in
  let rng = Rng.create 9 in
  let n_ops = 20_000 in
  let kind = Bytes.create n_ops and at = Array.make n_ops 0.0 in
  let slot = Array.make n_ops 0 and arg = Array.make n_ops 0 in
  let record k op ~t id a =
    Bytes.set_uint8 kind k op;
    at.(k) <- t;
    slot.(k) <- id;
    arg.(k) <- a
  in
  (* Eight bundles at ~5 Mbps of offered load between them; every 500th
     op retires one and starts a successor on the recycled slot. *)
  let live = Array.make 8 0 in
  for b = 0 to 7 do
    live.(b) <- Sharded_pool.acquire sp ~at:0.0;
    record b 0 ~t:0.0 live.(b) 0
  done;
  let k = ref 8 in
  while !k < n_ops do
    let t = float_of_int !k *. 1e-3 in
    let b = Rng.int rng 8 in
    if !k mod 500 = 0 && !k + 1 < n_ops then begin
      Sharded_pool.release sp ~at:t live.(b);
      record !k 1 ~t live.(b) 0;
      live.(b) <- Sharded_pool.acquire sp ~at:t;
      record (!k + 1) 0 ~t live.(b) 0;
      k := !k + 2
    end
    else begin
      let size = 200 + Rng.int rng 1100 in
      Sharded_pool.push sp ~at:t live.(b) ~size;
      record !k 2 ~t live.(b) size;
      incr k
    end
  done;
  let measure f =
    let w0 = Gc.minor_words () in
    let r = f () in
    (Gc.minor_words () -. w0, r)
  in
  let replay_words, report = measure (fun () -> Sharded_pool.run sp) in
  let direct_words, direct =
    measure (fun () ->
        (* The replay's numbering: dense local ids in first-acquire
           order. *)
        let local = Array.make 16 (-1) and n_slots = ref 0 in
        for i = 0 to n_ops - 1 do
          if Bytes.get_uint8 kind i = 0 && local.(slot.(i)) < 0 then begin
            local.(slot.(i)) <- !n_slots;
            incr n_slots
          end
        done;
        let sim = Sim.create () in
        let pool =
          Bundle_pool.create ~initial_capacity:!n_slots
            ~rng:(Rng.stream ~seed:21 0) ~sim config
        in
        let i = ref 0 in
        let rec fire () =
          let k = !i in
          let l = local.(slot.(k)) in
          (match Bytes.get_uint8 kind k with
          | 0 -> ignore (Bundle_pool.acquire_slot pool l)
          | 1 -> Bundle_pool.release pool l
          | _ -> Bundle_pool.push pool l ~size:arg.(k));
          i := k + 1;
          if k + 1 < n_ops then Sim.schedule sim ~at:at.(k + 1) fire
        in
        Sim.schedule sim ~at:at.(0) fire;
        Sim.run sim;
        Bundle_pool.total_delivered_packets pool)
  in
  Alcotest.(check int)
    "replay delivers what the direct drive does" direct
    report.Sharded_pool.delivered_packets;
  let per = (replay_words -. direct_words) /. float_of_int n_ops in
  Printf.printf "replay %.3f words/op over a direct drive\n" per;
  if per > 1.0 then
    Alcotest.failf "Sharded_pool replay allocates %.2f words/op over a direct drive"
      per

let suites =
  [
    ( "sharded",
      [
        QCheck_alcotest.to_alcotest prop_counters_partition_merge;
        QCheck_alcotest.to_alcotest prop_recovery_partition_merge;
        Alcotest.test_case "verdict merge" `Quick test_verdict_merge;
        Alcotest.test_case "shard assignment" `Quick test_shard_of_bundle;
        Alcotest.test_case "e2e: domains 1/2/3" `Quick test_e2e;
        Alcotest.test_case "replay allocation" `Quick test_replay_allocation;
        Alcotest.test_case "calendar bimodal equivalence" `Quick
          test_calendar_bimodal_equivalence;
      ] );
  ]
