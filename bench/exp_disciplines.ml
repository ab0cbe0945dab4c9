(* Striping-discipline comparison matrix: the same 3 x 10 Mbps bundle
   (skewed one-way delays 8/1/4 ms) under the same bursty source, run
   once per discipline per scenario:

   disciplines   SRR, RR, GRR (CFQ engines, quasi-FIFO machinery),
                 Sprinklers (randomized variable-size stripes: SRR
                 quanta scaled to burst granularity + seeded per-round
                 permuted visit order — still causal, still replayed),
                 RFQ (seeded random draw per packet — causal but
                 engine-less, so it delivers in arrival order).
   scenarios     clean | impair (channel 1 reorders/duplicates/corrupts
                 behind a channel guard until 1.2 s) | failover
                 (channel 2 carrier drops at 0.5 s, heals at 1.1 s,
                 suspend/resume + §5 barrier through the striper) |
                 health (Gilbert-Elliott gray loss on channel 1 from
                 0.5 s to 1.2 s under the §13 health engine:
                 quarantine on evidence, timed reinstatement).

   The source is deliberately bursty — trains of 6 consecutive 1000 B
   packets every 12 ms, each train exactly one Sprinklers stripe —
   because burst locality is exactly what variable-size stripes buy:
   SRR's packet-grain rotation sprays each train across all three
   (delay-skewed) channels, so trains arrive interleaved; Sprinklers
   parks a whole train on one wire, trading a wider fairness bound for
   burst-local FIFO arrivals. The gaps matter too: at saturation every
   discipline is backlogged and depth degenerates to bytes-in-flight
   (which larger stripes make {e worse}); with idle gaps between
   trains the gauge isolates placement. The [depth] columns quantify it:
   max/p99 over arrivals of how far each packet's sequence trails the
   highest sequence already arrived (the same gauge as
   [Resequencer.reorder_depth_max], measured here uniformly at the wire
   exit so engine-less disciplines are comparable).

   Reported per cell: the discipline's analytic fairness bound (bytes;
   n/a for the engine-less disciplines), goodput, arrival reorder depth
   (max and p99), delivered-order inversions, and post-fault resync
   time. Everything runs in virtual time on seeded randomness, so the
   matrix is deterministic — a CI gate:

     dune exec bench/exp_disciplines.exe --                  # table
     dune exec bench/exp_disciplines.exe -- --json FILE      # baseline
     dune exec bench/exp_disciplines.exe -- --check FILE
       # exit 1 unless every field prints exactly as committed in FILE

   Every run, checked or not, exits 1 if the Sprinklers acceptance bar
   fails: strictly lower clean-scenario arrival reorder depth than SRR
   at equal (±2%) goodput. *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let n = 3
let rates = [| 10e6; 10e6; 10e6 |]
let delays = [| 0.008; 0.001; 0.004 |]
let errors_stop = 1.2
let fail_at = 0.5
let heal_at = 1.1
let gray_at = 0.5
let run_until = 1.6
let drain_until = 2.0
let guard_window = 48
let seed = 0x5eed
let disciplines = [ "srr"; "rr"; "grr"; "sprinklers"; "rfq" ]

type scenario = Clean | Impair_s | Failover | Health_s

let scenarios =
  [
    ("clean", Clean); ("impair", Impair_s); ("failover", Failover);
    ("health", Health_s);
  ]

(* Uniform arrival reorder-depth gauge: fed at the wire exit (before
   guard/resequencer) so every discipline is measured at the same
   point. Same bucket scheme as the resequencer's gauge. *)
module Depth = struct
  let buckets = 256

  type t = { hist : int array; mutable max_seq : int; mutable max_d : int;
             mutable samples : int }

  let create () =
    { hist = Array.make buckets 0; max_seq = -1; max_d = 0; samples = 0 }

  let observe t ~seq =
    if seq >= 0 then begin
      let d = if seq < t.max_seq then t.max_seq - seq else 0 in
      if d > t.max_d then t.max_d <- d;
      let b = if d >= buckets then buckets - 1 else d in
      t.hist.(b) <- t.hist.(b) + 1;
      t.samples <- t.samples + 1;
      if seq > t.max_seq then t.max_seq <- seq
    end

  let max_depth t = t.max_d

  let percentile t ~p =
    if t.samples = 0 then 0
    else begin
      let need =
        max 1 (int_of_float (ceil (p *. float_of_int t.samples)))
      in
      let acc = ref 0 and d = ref 0 and found = ref (-1) in
      while !found < 0 && !d < buckets - 1 do
        acc := !acc + t.hist.(!d);
        if !acc >= need then found := !d;
        incr d
      done;
      if !found >= 0 then !found else t.max_d
    end
end

type result = {
  slug : string;  (* "<discipline>_<scenario>" *)
  fairness : int;  (* analytic bound, bytes; -1 = not bounded *)
  delivered : int;
  goodput_mbps : float;
  depth_max : int;
  depth_p99 : int;
  inversions : int;  (* delivered-order inversions *)
  resync_ms : float;  (* negative = FIFO never restored / not applicable *)
}

let run_cell disc_slug (scen_slug, scen) =
  let sim = Sim.create () in
  let master = Rng.create 4242 in
  let recovery = Stripe_metrics.Recovery.create () in
  let reorder = Reorder.create () in
  let depth = Depth.create () in
  let delivered_bytes = ref 0 in
  let scheduler = Scheduler.of_discipline ~seed ~rates_bps:rates disc_slug in
  let engine_opt = Scheduler.deficit scheduler in
  let deliver ~channel:_ (pkt : Packet.t) =
    Stripe_metrics.Recovery.observe recovery ~now:(Sim.now sim)
      ~seq:pkt.Packet.seq;
    Reorder.observe reorder ~seq:pkt.Packet.seq;
    delivered_bytes := !delivered_bytes + pkt.Packet.size
  in
  let reseq =
    match engine_opt with
    | Some e ->
      Some
        (Resequencer.create ~deficit:(Deficit.clone_initial e)
           ~now:(fun () -> Sim.now sim)
           ~watchdog:{ Resequencer.intervals = 3; fallback = 0.02 }
           ~deliver ())
    | None -> None
  in
  (* Arrival path: depth gauge first (uniform measurement point), then
     guard (impair scenario only), then resequencer or arrival-order
     delivery. *)
  let ingest c pkt =
    match reseq with
    | Some r -> Resequencer.receive r ~channel:c pkt
    | None -> if not (Packet.is_marker pkt) then deliver ~channel:c pkt
  in
  let guard =
    match scen with
    | Impair_s ->
      Some
        (Channel_guard.create ~n ~window:guard_window
           ~now:(fun () -> Sim.now sim)
           ~deliver:(fun ~channel pkt -> ingest channel pkt)
           ())
    | _ -> None
  in
  let mangle_rng = Rng.split master in
  let impairment =
    Impair.make ~reorder_p:0.2 ~reorder_window:0.01 ~dup_p:0.05
      ~corrupt_p:0.02 ()
  in
  let links =
    Array.init n (fun i ->
        Link.create sim
          ~name:(Printf.sprintf "ch%d" i)
          ~rate_bps:rates.(i) ~prop_delay:delays.(i) ~rng:(Rng.split master)
          ~impair:
            (if scen = Impair_s && i = 1 then impairment else Impair.none)
          ~corrupt:(fun (tag, pkt) ->
            if Packet.is_marker pkt then
              Some
                ( tag,
                  Packet.mangle_marker
                    ~salt:(Rng.int mangle_rng 0x3fffffff)
                    pkt )
            else None)
          ~deliver:(fun (tag, pkt) ->
            if not (Packet.is_marker pkt) then
              Depth.observe depth ~seq:pkt.Packet.seq;
            match guard with
            | Some g -> Channel_guard.receive g ~channel:i ~tag pkt
            | None -> ingest i pkt)
          ())
  in
  let tx_tags = Channel_guard.Tx.create ~n in
  let striper =
    Striper.create ~scheduler
      ?marker:
        (match engine_opt with
        | Some _ -> Some (Marker.make ~every_rounds:4 ())
        | None -> None)
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel pkt ->
        let tag =
          match guard with
          | Some _ -> Channel_guard.Tx.next_tag tx_tags ~channel
          | None -> -1
        in
        ignore (Link.send links.(channel) ~size:pkt.Packet.size (tag, pkt)))
      ()
  in
  (* Scenario events. *)
  (match scen with
  | Clean -> ()
  | Impair_s ->
    Sim.schedule sim ~at:errors_stop (fun () ->
        Array.iter (fun l -> Link.set_impairments l Impair.none) links)
  | Failover ->
    Sim.schedule sim ~at:fail_at (fun () ->
        Link.set_up links.(2) false;
        Striper.suspend_channel striper 2);
    Sim.schedule sim ~at:heal_at (fun () ->
        Link.set_up links.(2) true;
        Striper.resume_channel striper 2)
  | Health_s ->
    let gray =
      Loss.gilbert ~p_good_to_bad:0.1 ~p_bad_to_good:0.1 ~loss_good:0.02
        ~loss_bad:0.9
    in
    Sim.schedule sim ~at:gray_at (fun () -> Link.set_loss links.(1) gray);
    Sim.schedule sim ~at:errors_stop (fun () ->
        Link.set_loss links.(1) (Loss.none ()));
    let h =
      Health.create
        ~live:(fun c -> c >= 0 && c < n && Link.is_up links.(c))
        ~n ()
    in
    let last_sent = Array.make n 0 in
    let last_lost = Array.make n 0 in
    let rec tick () =
      for c = 0 to n - 1 do
        let ds = Link.sent_packets links.(c) - last_sent.(c) in
        let dl = Link.lost_packets links.(c) - last_lost.(c) in
        last_sent.(c) <- Link.sent_packets links.(c);
        last_lost.(c) <- Link.lost_packets links.(c);
        if ds > 0 || dl > 0 then
          Health.observe h ~channel:c ~sent:ds ~lost:dl ~goodput_ratio:1.0 ()
      done;
      List.iter
        (function
          | Health.To_quarantine { channel; _ } ->
            Striper.suspend_channel striper channel
          | Health.To_probation { channel; from_quarantine = true } ->
            Striper.resume_channel striper channel
          | Health.To_suspect _ | Health.To_probation _ | Health.To_healthy _
            -> ())
        (Health.sample h ~now:(Sim.now sim));
      if Sim.now sim < run_until then Sim.schedule_after sim ~delay:0.05 tick
    in
    Sim.schedule sim ~at:0.05 tick);
  (* Bursty source: a train of 6 consecutive 1000 B packets every 12 ms
     — long enough for each train to serialize and propagate before the
     next, so what the depth gauge sees is pure placement, not queueing.
     One train is exactly one Sprinklers stripe (6000 B); burst
     locality is the whole experiment — see the header comment. *)
  let seq = ref 0 in
  let rec burst () =
    if Sim.now sim < run_until then begin
      for _ = 1 to 6 do
        Striper.push striper
          (Packet.data ~seq:!seq ~born:(Sim.now sim) ~size:1000 ());
        incr seq
      done;
      Sim.schedule_after sim ~delay:0.012 burst
    end
  in
  burst ();
  Sim.schedule sim ~at:drain_until (fun () ->
      match guard with Some g -> Channel_guard.flush g | None -> ());
  Sim.run sim;
  let delivered = Stripe_metrics.Recovery.deliveries recovery in
  let resync_ms =
    match engine_opt with
    | None -> -1.0  (* arrival order: FIFO is never the contract *)
    | Some _ -> (
      match
        Stripe_metrics.Recovery.resync_time recovery ~errors_stop
      with
      | Some dt -> 1000.0 *. dt
      | None -> -1.0)
  in
  {
    slug = disc_slug ^ "_" ^ scen_slug;
    fairness =
      (match engine_opt with
      | Some e -> Srr.fairness_bound e
      | None -> -1);
    delivered;
    goodput_mbps =
      8.0 *. float_of_int !delivered_bytes /. run_until /. 1e6;
    depth_max = Depth.max_depth depth;
    depth_p99 = Depth.percentile depth ~p:0.99;
    inversions = Reorder.out_of_order reorder;
    resync_ms;
  }

let fields =
  Gate.
    [
      int "fairness" (fun r -> r.fairness);
      int "delivered" (fun r -> r.delivered);
      float "goodput_mbps" "%.4f" (fun r -> r.goodput_mbps);
      int "depth_max" (fun r -> r.depth_max);
      int "depth_p99" (fun r -> r.depth_p99);
      int "inversions" (fun r -> r.inversions);
      float "resync_ms" "%.3f" (fun r -> r.resync_ms);
    ]

let print_table rows =
  Gate.table ~title:"Striping disciplines" ~key:"config" fields rows;
  print_endline
    "Engine disciplines (srr/rr/grr/sprinklers) resequence: inversions stay 0";
  print_endline
    "and FIFO returns within about a marker interval of each fault horizon.";
  print_endline
    "Sprinklers trades a stripe_scale-wider fairness bound for burst-local";
  print_endline
    "FIFO arrivals: on the bursty source its arrival reorder depth sits well";
  print_endline
    "under SRR's at the same goodput, which shrinks the resequencing buffer";
  print_endline
    "the receiver must hold. The engine-less rfq delivers in arrival order:";
  print_endline
    "its depth and inversion columns price giving up the replayed engine.\n"

(* The Sprinklers acceptance bar, enforced on every run: on the bursty
   clean scenario it must beat SRR's arrival reorder depth strictly, at
   equal (±2%) goodput. *)
let acceptance results =
  let get slug = List.find (fun r -> r.slug = slug) results in
  let srr = get "srr_clean" and spr = get "sprinklers_clean" in
  let ok_depth = spr.depth_max < srr.depth_max in
  let ok_goodput =
    Float.abs (spr.goodput_mbps -. srr.goodput_mbps)
    <= 0.02 *. srr.goodput_mbps
  in
  Printf.printf
    "acceptance: sprinklers depth %d %s srr depth %d at %.2f vs %.2f Mbps \
     (%s)\n"
    spr.depth_max
    (if ok_depth then "<" else ">=")
    srr.depth_max spr.goodput_mbps srr.goodput_mbps
    (if ok_depth && ok_goodput then "ok" else "FAIL");
  if not (ok_depth && ok_goodput) then
    Gate.fail "sprinklers misses the acceptance bar against srr"

let () =
  let opts = Gate.parse "exp_disciplines" [] in
  print_endline
    "Striping disciplines - 3 x 10 Mbps, delays 8/1/4 ms, bursty source (6 x \
     1000 B trains every 12 ms), scenarios clean/impair/failover/health";
  let results =
    List.concat_map
      (fun d -> List.map (fun s -> run_cell d s) scenarios)
      disciplines
  in
  let rows = List.map (fun r -> (r.slug, r)) results in
  print_table rows;
  acceptance results;
  Gate.emit opts ~key:"config"
    ~scenario:
      "disciplines: 3x10Mbps delays 8/1/4ms, bursty 6x1000B trains every \
       12ms, scenarios clean/impair/failover/health"
    ~array:"configs" fields rows;
  Gate.finish ()
