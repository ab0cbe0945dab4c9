(* Calendar queue tests: unit coverage, the qcheck equivalence
   properties against the binary heap {!Eventq} (the reference model —
   including FIFO tie-breaking, which keeps seeded simulations
   deterministic), the zero-allocation steady state of the node slab,
   and the popped-value leak regressions of both queues. *)

open Stripe_netsim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Calendar queue unit tests ------------------------------------- *)

let test_empty () =
  let q = Calendar_queue.create () in
  check "fresh calendar is empty" true (Calendar_queue.is_empty q);
  check_int "fresh calendar length" 0 (Calendar_queue.length q);
  check "no peek time" true (Calendar_queue.peek_time q = None);
  check "pop on empty" true (Calendar_queue.pop q = None)

let test_time_order () =
  let q = Calendar_queue.create () in
  List.iter
    (fun t -> Calendar_queue.add q ~time:t (int_of_float t))
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order =
    List.init 5 (fun _ ->
        match Calendar_queue.pop q with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "ascending time order" [ 1; 2; 3; 4; 5 ] order

let test_fifo_ties () =
  let q = Calendar_queue.create () in
  for i = 0 to 9 do
    Calendar_queue.add q ~time:1.0 i
  done;
  let order =
    List.init 10 (fun _ ->
        match Calendar_queue.pop q with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "same-time events pop in insertion order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    order

let test_growth_across_resizes () =
  (* Enough events to force several bucket-ring doublings, inserted in
     reverse so every add lands before the current year. *)
  let q = Calendar_queue.create () in
  let n = 10_000 in
  for i = n downto 1 do
    Calendar_queue.add q ~time:(float_of_int i) i
  done;
  check_int "all inserted" n (Calendar_queue.length q);
  let prev = ref 0 in
  let sorted = ref true in
  for _ = 1 to n do
    match Calendar_queue.pop q with
    | Some (_, v) ->
      if v < !prev then sorted := false;
      prev := v
    | None -> sorted := false
  done;
  check "large reverse-order insert pops sorted" true !sorted

let test_wide_spread () =
  (* Times spanning ten orders of magnitude exercise the width clamp and
     the direct-search fallback for far-future events. *)
  let q = Calendar_queue.create () in
  let times = [ 1e-6; 3.0; 1e4; 0.5; 2e-6; 9e3; 7.0; 0.0 ] in
  List.iteri (fun i t -> Calendar_queue.add q ~time:t i) times;
  let rec drain acc =
    match Calendar_queue.pop q with
    | Some (t, _) -> drain (t :: acc)
    | None -> List.rev acc
  in
  let popped = drain [] in
  Alcotest.(check (list (float 0.0)))
    "wide time spread pops sorted"
    (List.sort compare times)
    popped

let test_clear_and_reuse () =
  let q = Calendar_queue.create () in
  for i = 0 to 99 do
    Calendar_queue.add q ~time:(float_of_int i) i
  done;
  Calendar_queue.clear q;
  check "cleared calendar is empty" true (Calendar_queue.is_empty q);
  Calendar_queue.add q ~time:2.0 20;
  Calendar_queue.add q ~time:1.0 10;
  check "usable after clear" true (Calendar_queue.pop q = Some (1.0, 10))

(* --- Equivalence against the heap ---------------------------------- *)

(* Operations drawn for the property: add at one of a few times (small
   palette to force plenty of ties), pop, clear. Both structures see the
   same sequence; every pop must agree on (time, value), including the
   FIFO order within a tie — that identity is what lets a simulation
   switch engines without changing a single event. *)
type op = Add of float | Pop | Clear

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun t -> Add t) (float_range 0.0 100.0));
        (3, map (fun i -> Add (float_of_int (i mod 8))) (int_bound 1000));
        (4, return Pop);
        (1, return Clear);
      ])

let op_print = function
  | Add t -> Printf.sprintf "Add %g" t
  | Pop -> "Pop"
  | Clear -> "Clear"

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 0 400) op_gen)

let prop_calendar_equals_heap =
  QCheck.Test.make ~name:"calendar = heap on random add/pop/clear" ~count:300
    ops_arb (fun ops ->
      let heap = Eventq.create () in
      let cal = Calendar_queue.create () in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Add t ->
            Eventq.add heap ~time:t !next;
            Calendar_queue.add cal ~time:t !next;
            incr next
          | Pop ->
            if Eventq.pop heap <> Calendar_queue.pop cal then ok := false
          | Clear ->
            Eventq.clear heap;
            Calendar_queue.clear cal)
        ops;
      (* Drain what is left: the full remaining pop sequences must agree
         too, and both must end empty. *)
      let rec drain () =
        let h = Eventq.pop heap and c = Calendar_queue.pop cal in
        if h <> c then ok := false
        else match h with Some _ -> drain () | None -> ()
      in
      drain ();
      !ok && Eventq.is_empty heap && Calendar_queue.is_empty cal)

(* Fleet-style churn stress: a bundle pool drives the shared queue
   through repeated population swings — thousands of arrivals cluster
   events near the clock, departures drain them again — which is
   exactly the add/pop/clear interleaving that exercises the calendar's
   [resize] doublings on the way up and [maybe_shrink] on the way down.
   The property is the same equivalence: every pop (time and value,
   FIFO within ties) must match the reference heap throughout. *)
type churn_seg =
  | Grow of int  (* burst of adds clustered just after the current time *)
  | Drain of int  (* burst of pops *)
  | Wipe  (* teardown of the whole population *)

let churn_seg_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun k -> Grow (1 + (k mod 500))) (int_bound 10_000));
        (5, map (fun k -> Drain (1 + (k mod 500))) (int_bound 10_000));
        (1, return Wipe);
      ])

let churn_seg_print = function
  | Grow k -> Printf.sprintf "Grow %d" k
  | Drain k -> Printf.sprintf "Drain %d" k
  | Wipe -> "Wipe"

let churn_arb =
  QCheck.make
    ~print:(fun segs -> String.concat "; " (List.map churn_seg_print segs))
    QCheck.Gen.(list_size (int_range 1 30) churn_seg_gen)

let prop_calendar_churn_equals_heap =
  QCheck.Test.make ~name:"calendar = heap under fleet-like churn" ~count:100
    churn_arb (fun segs ->
      let heap = Eventq.create () in
      let cal = Calendar_queue.create () in
      let next = ref 0 in
      let now = ref 0.0 in
      let ok = ref true in
      (* Deterministic pseudo-offsets keep the generated case small (and
         shrinkable) while still clustering times the way link arrivals
         do, with occasional far-future stragglers. *)
      let offset i =
        if i mod 97 = 0 then 50.0 +. float_of_int (i mod 7)
        else float_of_int (i * 7919 mod 1000) /. 1000.0
      in
      List.iter
        (fun seg ->
          match seg with
          | Grow k ->
            for _ = 1 to k do
              let t = !now +. offset !next in
              Eventq.add heap ~time:t !next;
              Calendar_queue.add cal ~time:t !next;
              incr next
            done
          | Drain k ->
            for _ = 1 to k do
              let h = Eventq.pop heap and c = Calendar_queue.pop cal in
              if h <> c then ok := false;
              match h with Some (t, _) -> now := t | None -> ()
            done
          | Wipe ->
            Eventq.clear heap;
            Calendar_queue.clear cal)
        segs;
      let rec drain () =
        let h = Eventq.pop heap and c = Calendar_queue.pop cal in
        if h <> c then ok := false
        else match h with Some _ -> drain () | None -> ()
      in
      drain ();
      !ok && Eventq.is_empty heap && Calendar_queue.is_empty cal)

(* --- Eventq popped-slot leak regression ---------------------------- *)

let test_pop_releases_value () =
  (* The heap used to keep popped values reachable in its vacated array
     slots. Register popped values in a weak array and check the GC can
     actually collect them once the only strong reference is dropped. *)
  let q = Eventq.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    Eventq.add q ~time:(float_of_int i) (ref i)
  done;
  for i = 0 to 7 do
    match Eventq.pop q with
    | Some (_, v) -> Weak.set w i (Some v)
    | None -> Alcotest.fail "heap emptied early"
  done;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  check_int "popped values are collectable" 0 !live;
  (* Keeps [q] reachable across the collections above. *)
  check "heap drained" true (Eventq.is_empty q)

(* Values pass through several grow and shrink resizes before they are
   popped, so their nodes are re-linked and then returned to the free
   list: a free node must not keep its old value reachable. *)
let test_calendar_pop_releases_value () =
  let q = Calendar_queue.create () in
  let n = 300 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    Calendar_queue.add q ~time:(float_of_int ((i * 7919) mod n)) (ref i)
  done;
  for i = 0 to n - 1 do
    match Calendar_queue.pop q with
    | Some (_, v) -> Weak.set w i (Some v)
    | None -> Alcotest.fail "calendar emptied early"
  done;
  (* Refill part of the slab so reused nodes are overwritten too. *)
  for i = 0 to 9 do
    Calendar_queue.add q ~time:(float_of_int i) (ref (-i))
  done;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr live
  done;
  check_int "popped values are collectable" 0 !live;
  (* Keeps [q] (and so its slab) reachable across the collections above. *)
  check_int "refilled nodes still queued" 10 (Calendar_queue.length q)

(* --- Steady-state allocation ---------------------------------------- *)

(* Once the node slab and the bucket-head array have reached their high
   water, cycling the population up and down — through grow resizes on
   the way up and shrink resizes on the way down — allocates nothing.
   Times come from a preboxed array so the loop itself allocates nothing
   either. *)
let test_steady_state_allocation_free () =
  let q = Calendar_queue.create () in
  let n = 4096 in
  let times =
    Array.init n (fun i -> Some (float_of_int (i * 7919 mod n) *. 1e-3))
  in
  let ops = ref 0 in
  let cycle () =
    for i = 0 to n - 1 do
      match times.(i) with
      | Some time -> Calendar_queue.add q ~time ()
      | None -> ()
    done;
    while Calendar_queue.length q > 16 do
      Calendar_queue.pop_exn q
    done;
    ops := !ops + (2 * n)
  in
  (* Warm-up: the slab and head array reach their high water. *)
  cycle ();
  ops := 0;
  let words0 = Gc.minor_words () in
  for _ = 1 to 10 do
    cycle ()
  done;
  let words = Gc.minor_words () -. words0 in
  Alcotest.(check (float 0.0)) "minor words per add/pop" 0.0
    (Float.round (words /. float_of_int !ops *. 1000.0) /. 1000.0)

let suites =
  [
    ( "calendar",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "time order" `Quick test_time_order;
        Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
        Alcotest.test_case "growth across resizes" `Quick
          test_growth_across_resizes;
        Alcotest.test_case "wide time spread" `Quick test_wide_spread;
        Alcotest.test_case "clear and reuse" `Quick test_clear_and_reuse;
        QCheck_alcotest.to_alcotest prop_calendar_equals_heap;
        QCheck_alcotest.to_alcotest prop_calendar_churn_equals_heap;
        Alcotest.test_case "eventq pop releases value" `Quick
          test_pop_releases_value;
        Alcotest.test_case "calendar pop releases value" `Quick
          test_calendar_pop_releases_value;
        Alcotest.test_case "steady state allocates nothing" `Quick
          test_steady_state_allocation_free;
      ] );
  ]
