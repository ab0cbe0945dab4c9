(* Tests for the FIFO link model: serialization timing, FIFO preservation
   under jitter, rate changes, MTU, transmit-queue overflow, counters,
   the wire's allocation and reachability, and a randomized property over
   impairments, carrier flaps and rate changes. *)

open Stripe_netsim

let make_link ?jitter ?rng ?loss ?txq_capacity_bytes ?mtu ~rate_bps ~prop_delay
    () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let link =
    Link.create sim ~name:"test" ~rate_bps ~prop_delay ?jitter ?rng ?loss
      ?txq_capacity_bytes ?mtu
      ~deliver:(fun v -> arrivals := (Sim.now sim, v) :: !arrivals)
      ()
  in
  (sim, link, fun () -> List.rev !arrivals)

let test_serialization_timing () =
  (* 1000 bytes at 8 Mbps = 1 ms serialization; +2 ms propagation. *)
  let sim, link, arrivals = make_link ~rate_bps:8e6 ~prop_delay:0.002 () in
  ignore (Link.send link ~size:1000 "p1");
  Sim.run sim;
  match arrivals () with
  | [ (t, "p1") ] -> Alcotest.(check (float 1e-9)) "arrival at 3 ms" 0.003 t
  | _ -> Alcotest.fail "expected exactly one arrival"

let test_back_to_back_serialization () =
  let sim, link, arrivals = make_link ~rate_bps:8e6 ~prop_delay:0.0 () in
  ignore (Link.send link ~size:1000 1);
  ignore (Link.send link ~size:1000 2);
  Sim.run sim;
  match arrivals () with
  | [ (t1, 1); (t2, 2) ] ->
    Alcotest.(check (float 1e-9)) "first at 1 ms" 0.001 t1;
    Alcotest.(check (float 1e-9)) "second serialized after first" 0.002 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_fifo_under_jitter () =
  let rng = Rng.create 42 in
  let sim, link, arrivals =
    make_link ~rate_bps:1e6 ~prop_delay:0.001
      ~jitter:(fun r -> Rng.float r 0.050)
      ~rng ()
  in
  for i = 1 to 200 do
    ignore (Link.send link ~size:100 i)
  done;
  Sim.run sim;
  let vals = List.map snd (arrivals ()) in
  Alcotest.(check (list int)) "jitter never reorders a FIFO channel"
    (List.init 200 (fun i -> i + 1))
    vals;
  let times = List.map fst (arrivals ()) in
  let monotone = List.for_all2 (fun a b -> a <= b) times (List.tl times @ [ infinity ]) in
  Alcotest.(check bool) "arrival times non-decreasing" true monotone

let test_rate_change () =
  let sim, link, arrivals = make_link ~rate_bps:8e6 ~prop_delay:0.0 () in
  ignore (Link.send link ~size:1000 1);
  Sim.run sim;
  Link.set_rate_bps link 16e6;
  ignore (Link.send link ~size:1000 2);
  Sim.run sim;
  match arrivals () with
  | [ (t1, 1); (t2, 2) ] ->
    Alcotest.(check (float 1e-9)) "slow rate" 0.001 t1;
    Alcotest.(check (float 1e-9)) "fast rate" 0.0015 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_loss_counting () =
  let rng = Rng.create 9 in
  let sim, link, arrivals =
    make_link ~rate_bps:1e9 ~prop_delay:0.0 ~loss:(Loss.bernoulli ~p:0.5) ~rng ()
  in
  for i = 1 to 1000 do
    ignore (Link.send link ~size:100 i)
  done;
  Sim.run sim;
  let delivered = List.length (arrivals ()) in
  Alcotest.(check int) "sent counter" 1000 (Link.sent_packets link);
  Alcotest.(check int) "lost + delivered = sent" 1000
    (Link.lost_packets link + Link.delivered_packets link);
  Alcotest.(check int) "delivered counter matches callback" delivered
    (Link.delivered_packets link);
  Alcotest.(check bool) "roughly half lost" true
    (Link.lost_packets link > 400 && Link.lost_packets link < 600)

let test_mtu_enforcement () =
  let _, link, _ = make_link ~rate_bps:1e6 ~prop_delay:0.0 ~mtu:1500 () in
  Alcotest.check_raises "oversize send raises"
    (Invalid_argument "Link.send: size 1501 exceeds MTU 1500 on test")
    (fun () -> ignore (Link.send link ~size:1501 ()))

let test_bad_size () =
  let _, link, _ = make_link ~rate_bps:1e6 ~prop_delay:0.0 () in
  Alcotest.check_raises "zero size raises"
    (Invalid_argument "Link.send: size must be positive") (fun () ->
      ignore (Link.send link ~size:0 ()))

let test_txq_overflow () =
  let sim, link, arrivals =
    make_link ~rate_bps:1e6 ~prop_delay:0.0 ~txq_capacity_bytes:1000 ()
  in
  (* First packet starts serializing immediately (leaves the queue);
     then 1000 bytes of queue fill; the next is dropped. *)
  let results = List.init 4 (fun i -> Link.send link ~size:500 i) in
  Alcotest.(check (list bool)) "fourth packet tail-dropped"
    [ true; true; true; false ] results;
  Alcotest.(check int) "drop counted" 1 (Link.txq_drops link);
  Sim.run sim;
  Alcotest.(check int) "three delivered" 3 (List.length (arrivals ()))

let test_queue_accounting () =
  let sim, link, _ = make_link ~rate_bps:1e6 ~prop_delay:0.0 () in
  ignore (Link.send link ~size:500 1);
  ignore (Link.send link ~size:300 2);
  ignore (Link.send link ~size:200 3);
  (* Packet 1 is being serialized; 2 and 3 wait in the queue. *)
  Alcotest.(check int) "queued bytes" 500 (Link.queue_bytes link);
  Alcotest.(check int) "queued packets" 2 (Link.queue_packets link);
  Alcotest.(check bool) "busy while serializing" true (Link.busy link);
  Sim.run sim;
  Alcotest.(check int) "drained" 0 (Link.queue_bytes link);
  Alcotest.(check bool) "idle after drain" false (Link.busy link)

let test_byte_counters () =
  let sim, link, _ = make_link ~rate_bps:1e6 ~prop_delay:0.0 () in
  ignore (Link.send link ~size:700 1);
  ignore (Link.send link ~size:300 2);
  Sim.run sim;
  Alcotest.(check int) "sent bytes" 1000 (Link.sent_bytes link);
  Alcotest.(check int) "delivered bytes" 1000 (Link.delivered_bytes link)

let test_invalid_create () =
  let sim = Sim.create () in
  Alcotest.check_raises "zero rate rejected"
    (Invalid_argument "Link.create: rate_bps must be > 0") (fun () ->
      ignore
        (Link.create sim ~rate_bps:0.0 ~prop_delay:0.0 ~deliver:ignore ()))

(* --- Allocation ------------------------------------------------------ *)

(* The wire's per-packet cost beyond the event queue's own. A link run
   of [n] packets (one send tick, one serialization-complete and one
   arrival event each) is measured against a bare simulator firing the
   same three events per packet through prebuilt closures at computed
   times. Both halves box the same event times in a dev build, so the
   difference is the link's own allocation in either profile. *)
let words_per_packet ~n run =
  let sim = Sim.create () in
  let got = run sim in
  (* Warm-up: the event slab and the link's rings reach their high
     water during the first half. *)
  Sim.run_until sim (float_of_int (n / 2) *. 1e-3);
  let w0 = Gc.minor_words () in
  Sim.run sim;
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every packet arrives" n !got;
  w /. float_of_int (n - (n / 2))

let interval = 1e-3
let prop = 0.002
let rate = ref 8e6

let link_run ~n sim =
  let got = ref 0 in
  let link =
    Link.create sim ~rate_bps:!rate ~prop_delay:prop
      ~deliver:(fun (_ : string) -> incr got)
      ()
  in
  let sent = ref 0 in
  let rec tick () =
    ignore (Link.send link ~size:500 "payload");
    incr sent;
    if !sent < n then Sim.schedule_after sim ~delay:interval tick
  in
  Sim.schedule sim ~at:0.0 tick;
  got

let bare_run ~n sim =
  let got = ref 0 in
  let sent = ref 0 in
  let arrive () = incr got in
  let ser_done () = Sim.schedule sim ~at:(Sim.now sim +. prop) arrive in
  let rec tick () =
    (* Computed at run time, as the link does: a dev build boxes it. *)
    let ser_time = float_of_int (500 * 8) /. !rate in
    Sim.schedule_after sim ~delay:ser_time ser_done;
    incr sent;
    if !sent < n then Sim.schedule_after sim ~delay:interval tick
  in
  Sim.schedule sim ~at:0.0 tick;
  got

let test_allocation () =
  let n = 20_000 in
  let link = words_per_packet ~n (link_run ~n) in
  let bare = words_per_packet ~n (bare_run ~n) in
  Printf.printf "link %.2f words/packet, bare Sim %.2f\n" link bare;
  if link -. bare > 1.0 then
    Alcotest.failf "link allocates %.2f words/packet over a bare Sim's %.2f"
      (link -. bare) bare

(* --- Reachability ---------------------------------------------------- *)

(* Delivered payloads must be collectable: neither the transmit queue,
   the serializer's staging field, the in-flight ring nor a spent
   per-copy event may keep one alive. Reordered and duplicated copies
   exercise both arrival paths. *)
let send_weak link w n =
  for i = 0 to n - 1 do
    let p = ref i in
    Weak.set w i (Some p);
    ignore (Link.send link ~size:100 p)
  done
[@@inline never]

let test_delivered_collectable () =
  let sim = Sim.create () in
  let n = 200 in
  let w = Weak.create n in
  let link =
    Link.create sim ~rate_bps:1e6 ~prop_delay:0.001
      ~impair:(Impair.make ~reorder_p:0.3 ~reorder_window:0.01 ~dup_p:0.2 ())
      ~rng:(Rng.create 5)
      ~deliver:(fun (_ : int ref) -> ())
      ()
  in
  send_weak link w n;
  Sim.run sim;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check int) "delivered payloads are collectable" 0 !live;
  (* Keeps [link] reachable across the collections above. *)
  Alcotest.(check int) "every copy delivered"
    (n + Link.duplicated_packets link)
    (Link.delivered_packets link)

(* --- Randomized wire property ---------------------------------------- *)

type wire_case = {
  seed : int;
  sends : float list;  (* send instants, one per packet *)
  jitter : float;
  loss_p : float;
  reorder_p : float;
  dup_p : float;
  corrupt_p : float;
  hook : int;  (* 0: no hook; 1: always mangle; 2: mangle odd ids *)
  flaps : (float * bool) list;
  rates : (float * float) list;
}

let wire_case_gen =
  let open QCheck.Gen in
  let prob = oneof [ return 0.0; float_range 0.0 0.4 ] in
  let time = float_range 0.0 0.2 in
  let* seed = int_bound 10_000 in
  let* sends = list_size (int_range 1 150) time in
  let* jitter = oneof [ return 0.0; float_range 0.0 0.01 ] in
  let* loss_p = prob in
  let* reorder_p = prob in
  let* dup_p = prob in
  let* corrupt_p = prob in
  let* hook = int_bound 2 in
  let* flaps = list_size (int_bound 6) (pair time bool) in
  let* rates = list_size (int_bound 4) (pair time (float_range 1e5 8e6)) in
  return
    {
      seed;
      sends = List.sort compare sends;
      jitter;
      loss_p;
      reorder_p;
      dup_p;
      corrupt_p;
      hook;
      flaps;
      rates;
    }

let print_wire_case c =
  Printf.sprintf
    "seed=%d sends=%d jitter=%g loss=%g reorder=%g dup=%g corrupt=%g hook=%d \
     flaps=[%s] rates=[%s]"
    c.seed (List.length c.sends) c.jitter c.loss_p c.reorder_p c.dup_p
    c.corrupt_p c.hook
    (String.concat ";"
       (List.map (fun (t, u) -> Printf.sprintf "%g:%b" t u) c.flaps))
    (String.concat ";"
       (List.map (fun (t, r) -> Printf.sprintf "%g:%g" t r) c.rates))

(* Longest non-decreasing subsequence: the copies that kept send order. *)
let lnds xs =
  let tails = Array.make (List.length xs + 1) max_int in
  let len = ref 0 in
  List.iter
    (fun x ->
      (* First tail strictly greater than [x]. *)
      let lo = ref 0 and hi = ref !len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if tails.(mid) <= x then lo := mid + 1 else hi := mid
      done;
      tails.(!lo) <- x;
      if !lo = !len then incr len)
    xs;
  !len

(* Packet [id] is sent with size [id + 1], so a [Dequeue] event names the
   packet it starts serializing. A mangled copy carries [-(id + 1)]. *)
let run_wire_case c =
  let sim = Sim.create () in
  let n = List.length c.sends in
  let prop_delay = 0.003 in
  let ser_end = Array.make n nan in
  let link_ref = ref None in
  let sink =
    Stripe_obs.Sink.of_fn (fun e ->
        if e.Stripe_obs.Event.kind = Stripe_obs.Event.Dequeue then
          match !link_ref with
          | Some link ->
            let size = e.Stripe_obs.Event.size in
            ser_end.(size - 1) <-
              Sim.now sim +. (float_of_int (size * 8) /. Link.rate_bps link)
          | None -> ())
  in
  let delivered = ref [] in
  let early = ref false and unsent = ref false and dark = ref false in
  let deliver v =
    let id = if v < 0 then -v - 1 else v in
    if id < 0 || id >= n || Float.is_nan ser_end.(id) then unsent := true
    else if Sim.now sim < ser_end.(id) +. prop_delay then early := true;
    (match !link_ref with
    | Some link -> if not (Link.is_up link) then dark := true
    | None -> ());
    delivered := id :: !delivered
  in
  let corrupt =
    match c.hook with
    | 0 -> None
    | 1 -> Some (fun v -> Some (-v - 1))
    | _ -> Some (fun v -> if v land 1 = 1 then Some (-v - 1) else None)
  in
  let impair =
    Impair.make ~reorder_p:c.reorder_p ~reorder_window:0.02 ~dup_p:c.dup_p
      ~corrupt_p:c.corrupt_p ()
  in
  let jitter =
    if c.jitter > 0.0 then Some (fun r -> Rng.float r c.jitter) else None
  in
  let link =
    Link.create sim ~rate_bps:1e6 ~prop_delay ?jitter ~rng:(Rng.create c.seed)
      ~loss:(Loss.bernoulli ~p:c.loss_p) ~impair ?corrupt ~sink ~deliver ()
  in
  link_ref := Some link;
  List.iter
    (fun (at, up) -> Sim.schedule sim ~at (fun () -> Link.set_up link up))
    c.flaps;
  List.iter
    (fun (at, r) -> Sim.schedule sim ~at (fun () -> Link.set_rate_bps link r))
    c.rates;
  List.iteri
    (fun id at ->
      Sim.schedule sim ~at (fun () -> ignore (Link.send link ~size:(id + 1) id)))
    c.sends;
  Sim.run sim;
  let delivered = List.rev !delivered in
  let n_delivered = List.length delivered in
  let balance =
    n + Link.duplicated_packets link
    = Link.txq_drops link + Link.lost_packets link + Link.down_drops link
      + Link.delivered_packets link + Link.corrupt_drops link
  in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        ok := false;
        QCheck.Test.fail_report m)
      fmt
  in
  if !unsent then fail "a delivered copy was never sent";
  if !early then fail "a copy arrived before serialization end + prop_delay";
  if !dark then fail "a copy was delivered while the carrier was down";
  if n_delivered <> Link.delivered_packets link then
    fail "delivered counter %d, callbacks %d" (Link.delivered_packets link)
      n_delivered;
  if lnds delivered < n_delivered - Link.reordered_packets link then
    fail "%d deliveries, %d reordered, only %d in send order" n_delivered
      (Link.reordered_packets link) (lnds delivered);
  if not balance then fail "counters do not balance";
  !ok

let prop_wire =
  QCheck.Test.make ~count:300 ~name:"wire: random impairments, flaps, rates"
    (QCheck.make ~print:print_wire_case wire_case_gen)
    run_wire_case

let suites =
  [
    ( "link",
      [
        Alcotest.test_case "serialization timing" `Quick test_serialization_timing;
        Alcotest.test_case "back-to-back" `Quick test_back_to_back_serialization;
        Alcotest.test_case "fifo under jitter" `Quick test_fifo_under_jitter;
        Alcotest.test_case "rate change" `Quick test_rate_change;
        Alcotest.test_case "loss counting" `Quick test_loss_counting;
        Alcotest.test_case "mtu" `Quick test_mtu_enforcement;
        Alcotest.test_case "bad size" `Quick test_bad_size;
        Alcotest.test_case "txq overflow" `Quick test_txq_overflow;
        Alcotest.test_case "queue accounting" `Quick test_queue_accounting;
        Alcotest.test_case "byte counters" `Quick test_byte_counters;
        Alcotest.test_case "invalid create" `Quick test_invalid_create;
        Alcotest.test_case "allocation" `Quick test_allocation;
        Alcotest.test_case "delivered collectable" `Quick
          test_delivered_collectable;
        QCheck_alcotest.to_alcotest prop_wire;
      ] );
  ]
