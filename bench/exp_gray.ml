(* Gray-failure experiment: channel 1 of a 3 x 10 Mbps SRR bundle does
   not die — it gets {e worse}. From t=1.0 s to t=3.0 s a Gilbert–
   Elliott loss process (bursty, ~45% mean loss) sits on the link while
   carrier stays up, so the §5/§8 failure machinery (carrier watchers,
   crash barriers) never triggers. Three protection levels are compared
   against a clean baseline:

   - none:      the base protocol; the striper keeps feeding the gray
                member and delivery blocks on every burst until markers
                resynchronize (Thm 5.1);
   - watchdog:  the receiver's marker-cadence watchdog skips the channel
                whenever a burst swallows its markers, restoring service
                but still losing everything striped into the gray link;
   - health:    the watchdog plus the PROTOCOL.md §13 health engine: a
                periodic tick fuses per-channel loss and goodput
                evidence, cuts the member's quantum at a round boundary
                on probation, quarantines it through suspend + the §5
                reset barrier when evidence worsens, and reinstates it
                on a timed exponential backoff that the still-gray link
                flaps back into quarantine — until the episode ends and
                the member recovers to full quantum.

   Reported per configuration: deliveries, goodput retained against the
   clean baseline, misordering, watchdog skips, quarantine entries and
   peak flap count, detection latency (gray onset to the engine's first
   transition), and liveness violations from the always-on monitor
   (the health engine must never zero the live membership).

   The whole scenario runs in virtual time on seeded randomness, so the
   numbers are deterministic — which makes them a CI gate. The binary
   itself enforces the §13 acceptance bar on every run: the health
   engine must retain strictly more goodput than the watchdog alone,
   with zero liveness violations.

     dune exec bench/exp_gray.exe --                  # table
     dune exec bench/exp_gray.exe -- --json FILE      # machine output
     dune exec bench/exp_gray.exe -- --check FILE
       # exit 1 unless every field prints exactly as committed in FILE *)

open Stripe_netsim
open Stripe_packet
open Stripe_core

let n = 3
let gray_at = 1.0
let gray_stop = 3.0
let src_stop = 4.0
let run_end = 4.5
let tick_every = 0.05
let nominal_quantum = 4000
let max_packet = Sizes.large_packet

let gray_loss () =
  Loss.gilbert ~p_good_to_bad:0.1 ~p_bad_to_good:0.1 ~loss_good:0.02
    ~loss_bad:0.9

type outcome = {
  delivered : int;
  bytes : int;
  ooo : int;
  wd_skips : int;
  quarantines : int;
  flaps : int;
  detect_ms : float;  (* negative = the engine never reacted *)
  deferred : int;
  violations : int;
}

let run_config ~gray ~watchdog ~with_health () =
  let sim = Sim.create () in
  let master = Rng.create 9091 in
  let recovery = Stripe_metrics.Recovery.create () in
  let reorder = Reorder.create () in
  let delivered_bytes = ref 0 in
  let engine =
    Srr.create ~max_packet ~quanta:(Array.make n nominal_quantum) ()
  in
  let wd =
    if watchdog then Some { Resequencer.intervals = 3; fallback = 0.01 }
    else None
  in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine)
      ~now:(fun () -> Sim.now sim)
      ?watchdog:wd
      ~deliver:(fun ~channel:_ pkt ->
        Stripe_metrics.Recovery.observe recovery ~now:(Sim.now sim)
          ~seq:pkt.Packet.seq;
        Reorder.observe reorder ~seq:pkt.Packet.seq;
        delivered_bytes := !delivered_bytes + pkt.Packet.size)
      ()
  in
  let links =
    Array.init n (fun i ->
        Link.create sim
          ~name:(Printf.sprintf "ch%d" i)
          ~rate_bps:10e6 ~prop_delay:0.002 ~rng:(Rng.split master)
          ~deliver:(fun pkt -> Resequencer.receive reseq ~channel:i pkt)
          ())
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~marker:(Marker.make ~every_rounds:4 ())
      ~now:(fun () -> Sim.now sim)
      ~emit:(fun ~channel pkt ->
        ignore (Link.send links.(channel) ~size:pkt.Packet.size pkt))
      ()
  in
  if gray then begin
    Sim.schedule sim ~at:gray_at (fun () ->
        Link.set_loss links.(1) (gray_loss ()));
    Sim.schedule sim ~at:gray_stop (fun () ->
        Link.set_loss links.(1) (Loss.none ()))
  end;
  let monitor = Stripe_obs.Monitor.create ~live_channels:n () in
  let quarantines = ref 0 in
  let max_flaps = ref 0 in
  let detect_at = ref (-1.0) in
  let health =
    if not with_health then None
    else begin
      let h =
        Health.create
          ~live:(fun c -> c >= 0 && c < n && Link.is_up links.(c))
          ~sink:(Stripe_obs.Monitor.sink monitor)
          ~n ()
      in
      let nominal = Array.make n nominal_quantum in
      let last_sent = Array.make n 0 in
      let last_lost = Array.make n 0 in
      let last_sb = Array.make n 0 in
      let last_db = Array.make n 0 in
      let staged = ref (Array.copy nominal) in
      let rec tick () =
        (* Harvest the window's per-channel evidence: wire loss rate and
           the goodput ratio (delivered/sent bytes — in-flight packets
           cost a few percent, well under the suspect line). *)
        for c = 0 to n - 1 do
          let ds = Link.sent_packets links.(c) - last_sent.(c) in
          let dl = Link.lost_packets links.(c) - last_lost.(c) in
          let dsb = Link.sent_bytes links.(c) - last_sb.(c) in
          let ddb = Link.delivered_bytes links.(c) - last_db.(c) in
          last_sent.(c) <- Link.sent_packets links.(c);
          last_lost.(c) <- Link.lost_packets links.(c);
          last_sb.(c) <- Link.sent_bytes links.(c);
          last_db.(c) <- Link.delivered_bytes links.(c);
          if ds > 0 || dl > 0 then
            Health.observe h ~channel:c ~sent:ds ~lost:dl
              ~goodput_ratio:
                (if dsb > 0 then
                   Float.min 1.0 (float_of_int ddb /. float_of_int dsb)
                 else 1.0)
              ()
        done;
        let now = Sim.now sim in
        let trs = Health.sample h ~now in
        if trs <> [] && !detect_at < 0.0 && now >= gray_at then
          detect_at := now;
        List.iter
          (function
            | Health.To_quarantine { channel; _ } ->
              incr quarantines;
              if Health.flaps h channel > !max_flaps then
                max_flaps := Health.flaps h channel;
              Striper.suspend_channel striper channel
            | Health.To_probation { channel; from_quarantine = true } ->
              (* Timed reinstatement probe: resume rides the §5 reset
                 barrier (default [?reset]). *)
              Striper.resume_channel striper channel
            | Health.To_suspect _ | Health.To_probation _ | Health.To_healthy _
              -> ())
          trs;
        (* Apply the states' quantum demands at a round boundary, floored
           at the max packet so probation keeps the Thm 5.1 marker
           precondition. A pending transition defers to the next tick. *)
        let target =
          Array.mapi
            (fun c q ->
              let s = Health.quantum_scale h c in
              if s <= 0.0 || s >= 1.0 then q
              else max max_packet (int_of_float (float_of_int q *. s)))
            nominal
        in
        if target <> !staged && not (Resequencer.transition_pending reseq)
        then begin
          staged := target;
          Resequencer.retune reseq ~quanta:target;
          Striper.retune striper ~quanta:target ()
        end;
        if now < run_end then Sim.schedule_after sim ~delay:tick_every tick
      in
      Sim.schedule sim ~at:tick_every tick;
      Some h
    end
  in
  (* Paced bimodal source at ~53% of the healthy aggregate — the two
     survivors can carry all of it when the gray member is out. *)
  let rng = Rng.create 77 in
  let gen =
    Stripe_workload.Genpkt.bimodal ~rng ~small:Sizes.small_packet
      ~large:Sizes.large_packet ()
  in
  let seq = ref 0 in
  let rec drive () =
    if Sim.now sim < src_stop then begin
      for _ = 1 to 2 do
        Striper.push striper
          (Packet.data ~seq:!seq ~born:(Sim.now sim) ~size:(gen ()) ());
        incr seq
      done;
      Sim.schedule_after sim ~delay:0.0006 drive
    end
  in
  drive ();
  Sim.run sim;
  {
    delivered = Stripe_metrics.Recovery.deliveries recovery;
    bytes = !delivered_bytes;
    ooo = Reorder.out_of_order reorder;
    wd_skips = Resequencer.watchdog_skips reseq;
    quarantines = !quarantines;
    flaps = !max_flaps;
    detect_ms =
      (if !detect_at < 0.0 then -1.0 else 1000.0 *. (!detect_at -. gray_at));
    deferred = (match health with Some h -> Health.deferred_quarantines h | None -> 0);
    violations = Stripe_obs.Monitor.violations monitor;
  }

type result = { slug : string; retained : float; o : outcome }

let configs =
  [
    ("clean", false, false, false);
    ("none", true, false, false);
    ("watchdog", true, true, false);
    ("health", true, true, true);
  ]

let fields =
  Gate.
    [
      int "delivered" (fun r -> r.o.delivered);
      float "retained" "%.4f" (fun r -> r.retained);
      int "ooo" (fun r -> r.o.ooo);
      int "wd_skips" (fun r -> r.o.wd_skips);
      int "quarantines" (fun r -> r.o.quarantines);
      int "flaps" (fun r -> r.o.flaps);
      float "detect_ms" "%.3f" (fun r -> r.o.detect_ms);
      int "deferred" (fun r -> r.o.deferred);
      int "violations" (fun r -> r.o.violations);
    ]

let print_table rows =
  Gate.table ~title:"Gray-failure protection" ~key:"config" fields rows;
  print_endline
    "A gray member defeats fail-stop protection: carrier never drops, so";
  print_endline
    "only the evidence — bursty loss, goodput shortfall — gives it away.";
  print_endline
    "Unprotected, every burst stalls logical reception until the next";
  print_endline
    "marker; the watchdog restores service but the striper keeps paying";
  print_endline
    "the gray link's loss rate on a third of the traffic. The health";
  print_endline
    "engine detects within a few evidence windows, cuts the member's";
  print_endline
    "quantum on probation, quarantines it outright as evidence worsens,";
  print_endline
    "and probes it back on an exponential backoff — each flap doubling";
  print_endline
    "the wait — until the episode ends and the member earns its full";
  print_endline
    "quantum back. The last-live-channel guard and the liveness monitor";
  print_endline "agree throughout: the bundle never heals itself to death.\n"

let () =
  let opts = Gate.parse "exp_gray" [] in
  print_endline
    "Gray failure - channel 1 at ~45% bursty loss 1.0-3.0 s, carrier up (3 x \
     10 Mbps SRR, markers every 4 rounds)";
  let results =
    let raw =
      List.map
        (fun (slug, gray, watchdog, with_health) ->
          (slug, run_config ~gray ~watchdog ~with_health ()))
        configs
    in
    let clean_bytes =
      match raw with (_, o) :: _ -> float_of_int o.bytes | [] -> 1.0
    in
    List.map
      (fun (slug, o) ->
        { slug; retained = float_of_int o.bytes /. clean_bytes; o })
      raw
  in
  let rows = List.map (fun r -> (r.slug, r)) results in
  print_table rows;
  (* The §13 acceptance bar holds on every run, not just --check: the
     health engine must strictly beat the watchdog alone, and self-
     healing must never zero the live membership. *)
  let find slug = List.find (fun r -> r.slug = slug) results in
  let health = find "health" and watchdog = find "watchdog" in
  if health.retained <= watchdog.retained then
    Gate.fail "health engine retained %.4f <= watchdog-only %.4f"
      health.retained watchdog.retained;
  List.iter
    (fun r ->
      if r.o.violations > 0 then
        Gate.fail "%s saw %d liveness violations" r.slug r.o.violations)
    results;
  Gate.emit opts ~key:"config"
    ~scenario:
      "gray failure: 3x10Mbps SRR markers=4, channel 1 Gilbert ~45% loss \
       1.0-3.0s carrier up, 53% offered load"
    ~array:"configs" fields rows;
  Gate.finish ()
