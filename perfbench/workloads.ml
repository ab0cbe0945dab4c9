(* The three workloads.

   Each rep builds its inputs from the seed, builds the system with the
   library's default construction (no [~engine]: the heap event queue a
   caller gets), times the run, and checks the outputs. With [~traced]
   the calls into each layer are wrapped in {!Span}s; the simulated
   behaviour is the same either way, which {!Main} checks. *)

open Stripe_netsim
open Stripe_core
module Packet = Stripe_packet.Packet
module Counters = Stripe_obs.Counters
module Monitor = Stripe_obs.Monitor
module Sink = Stripe_obs.Sink
module Event = Stripe_obs.Event
module Bundle_pool = Stripe_fleet.Bundle_pool
module Sharded_pool = Stripe_fleet.Sharded_pool
module Ledger = Checks.Ledger

type plant = No_plant | Fifo_inversion | Dropped_byte

type rep = {
  setup_s : float;
  wall_s : float;  (** The timed region. *)
  delivered : int;  (** Data packets delivered in the timed region. *)
  minor_words : float;  (** Allocated in the timed region. *)
  peak_heap_words : float;  (** Major-heap high-water in the timed region. *)
  extras : (string * float) list;  (** Workload-specific end-to-end. *)
  layer : (string * float) list;
      (** Per-layer values that come from counters, not spans. *)
  det : (string * string) list;
      (** Everything that must repeat exactly for a seed, traced or not. *)
  failures : string list;
}

let s_of_ns ns = float_of_int ns *. 1e-9
let exact v = Printf.sprintf "%.17g" v
(* The major heap as of the last major-cycle end (cheap; [Gc.stat]
   walks the heap). *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* The timed region: wall time, minor words, and (with [heap]) the
   major-heap high-water, sampled at the end of every major cycle. The
   high-water is absolute, so it includes the live inputs: above the
   set-up heap, a single bundle's own state is less than one 32 KB heap
   pool. The traced run leaves the heap unsampled: the sampler would run
   inside whichever span is open. *)
let measure ~heap f =
  Gc.full_major ();
  let peak = ref (heap_words ()) in
  let alarm =
    if heap then
      Some
        (Gc.create_alarm (fun () ->
             let h = heap_words () in
             if h > !peak then peak := h))
    else None
  in
  let w0 = Gc.minor_words () in
  let t0 = Span.now_ns () in
  let r = f () in
  let t1 = Span.now_ns () in
  let words = Gc.minor_words () -. w0 in
  Option.iter Gc.delete_alarm alarm;
  let h = heap_words () in
  if h > !peak then peak := h;
  (r, s_of_ns (t1 - t0), words, float_of_int !peak)

(* Nearest-rank percentiles of a sample (sorted in place); 0 when
   empty. *)
let percentiles values ps =
  Array.stable_sort Float.compare values;
  let n = Array.length values in
  List.map
    (fun p ->
      if n = 0 then 0.0
      else
        values.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))))
    ps

let p50_p999 values =
  match percentiles values [ 0.5; 0.999 ] with
  | [ a; b ] -> (a, b)
  | _ -> assert false

(* Drive the simulation. Untraced, [Sim.run] as a caller would; traced,
   one [sim] span per step. *)
let drive ~traced sim ~events ~pending_max =
  if not traced then Sim.run sim
  else begin
    let more = ref true in
    while !more do
      Span.enter Span.Sim;
      more := Sim.step sim;
      Span.leave ();
      if !more then incr events;
      let p = Sim.pending sim in
      if p > !pending_max then pending_max := p
    done
  end

let link_stats links () =
  ( Array.map Link.sent_packets links,
    Array.map Link.sent_bytes links,
    Array.map Link.lost_packets links )

let schedule ~traced sim ~at f =
  if traced then begin
    Span.enter Span.Sim;
    Sim.schedule sim ~at f;
    Span.leave ()
  end
  else Sim.schedule sim ~at f

(* --- ref_clean and ref_gray: one Striper -> Link -> Resequencer bundle -- *)

let small = Stripe_packet.Sizes.small_packet
let large = Stripe_packet.Sizes.large_packet
let mean_size = float_of_int (small + large) /. 2.0

(* ref_gray's episodes: channel 1 lossy and channel 2 reordering and
   duplicating over [period*k + 1, period*k + 3), then clean; the source
   runs [gray_tail] past the last episode so FIFO must come back. *)
let gray_period = 4.0
let gray_on = 1.0
let gray_len = 2.0
let gray_tail = 3.0
let gray_episodes = 8
let gray_tick = 0.05
let gray_quantum = 4000
let gray_quiet_grace = 1.5

let gray_loss () =
  Loss.gilbert ~p_good_to_bad:0.1 ~p_bad_to_good:0.1 ~loss_good:0.02
    ~loss_bad:0.9

let gray_impair () = Impair.make ~reorder_p:0.2 ~reorder_window:0.01 ~dup_p:0.05 ()
let episode_start k = (gray_period *. float_of_int k) +. gray_on
let episode_end k = episode_start k +. gray_len

(* Offered load: 90% of 4 x 10 Mbps for ref_clean; two packets every
   0.6 ms (53% of 3 x 10 Mbps) for ref_gray. *)
let clean_interval = mean_size *. 8.0 /. (0.9 *. 40e6)
let gray_pair_interval = 0.0006
let ref_clean_packets = 200_000

let gray_packets ~episodes =
  let stop = episode_end (episodes - 1) +. gray_tail in
  2 * int_of_float (stop /. gray_pair_interval)

let single ~gray ~seed ~traced ?(plant = No_plant) ?(packets = ref_clean_packets)
    ?(episodes = gray_episodes) () =
  let failures = ref [] in
  let t_setup = Span.now_ns () in
  (* Inputs: sizes and send times, fixed before the timed region. *)
  let rng = Rng.create seed in
  let gen =
    Stripe_workload.Genpkt.bimodal ~rng:(Rng.split rng) ~small ~large ()
  in
  let n = if gray then gray_packets ~episodes else packets in
  let born i =
    if gray then float_of_int (i / 2) *. gray_pair_interval
    else float_of_int i *. clean_interval
  in
  let pkts =
    Array.init n (fun i -> Packet.data ~seq:i ~born:(born i) ~size:(gen ()) ())
  in
  let sizes = Array.map (fun p -> p.Packet.size) pkts in
  let n_ch = if gray then 3 else 4 in
  let rates = Array.make n_ch 10e6 in
  let delays = if gray then Array.make 3 0.002 else [| 0.001; 0.002; 0.005; 0.010 |] in
  (* Build. *)
  let sim = Sim.create () in
  let now () = Sim.now sim in
  let engine =
    if gray then Srr.create ~max_packet:large ~quanta:(Array.make n_ch gray_quantum) ()
    else Srr.for_rates ~rates_bps:rates ~quantum_unit:1500 ()
  in
  let ledger = Ledger.create sizes in
  let wire_t = Float.Array.make n Float.nan in
  let reseq_t = Float.Array.make n Float.nan in
  let deliver_t = Float.Array.make n Float.nan in
  let order = Array.make n 0 in
  let n_order = ref 0 in
  let delivered_bytes = ref 0 in
  let quiet = if gray then episode_end (episodes - 1) +. gray_quiet_grace else 0.0 in
  let monitor = Monitor.create ~live_channels:n_ch ~quiet_after:quiet () in
  let counters = Counters.create ~n:n_ch in
  let sink =
    if not gray then Sink.null
    else begin
      let msink = Monitor.sink monitor in
      if traced then
        Sink.of_fn (fun ev ->
            Span.enter Span.Obs;
            Counters.observe counters ev;
            Sink.emit msink ev;
            Span.leave ())
      else
        Sink.of_fn (fun ev ->
            Counters.observe counters ev;
            Sink.emit msink ev)
    end
  in
  (* Deliveries, as the benchmark records them. A plant corrupts this
     record the way a defect below it would, to prove the checks fire. *)
  let record (pkt : Packet.t) =
    let s = pkt.seq in
    Ledger.deliver ledger s;
    Float.Array.unsafe_set deliver_t s (Sim.now sim);
    if !n_order < n then begin
      order.(!n_order) <- s;
      incr n_order
    end;
    delivered_bytes := !delivered_bytes + pkt.size
  in
  let planted = ref false and held = ref None in
  let record =
    match plant with
    | No_plant -> record
    | Fifo_inversion ->
      fun pkt ->
        (match !held with
        | Some h ->
          held := None;
          record pkt;
          record h
        | None ->
          if !n_order = 1000 && not !planted then begin
            planted := true;
            held := Some pkt
          end
          else record pkt)
    | Dropped_byte ->
      fun pkt ->
        if !n_order = 1000 && not !planted then planted := true else record pkt
  in
  let on_deliver =
    if traced then (fun ~channel:_ pkt ->
      Span.enter Span.Bench;
      record pkt;
      Span.leave ())
    else fun ~channel:_ pkt -> record pkt
  in
  let watchdog =
    if gray then Some { Resequencer.intervals = 3; fallback = 0.01 } else None
  in
  let reseq =
    Resequencer.create ~deficit:(Deficit.clone_initial engine) ~now ~sink
      ?watchdog ~deliver:on_deliver ()
  in
  let forwarded (pkt : Packet.t) =
    let s = pkt.seq in
    if s >= 0 && Bytes.unsafe_get ledger.state s < Ledger.forwarded then begin
      Ledger.mark ledger s Ledger.forwarded;
      Float.Array.unsafe_set reseq_t s (Sim.now sim)
    end
  in
  let to_reseq =
    if traced then (fun ~channel pkt ->
      forwarded pkt;
      Span.enter Span.Reseq;
      Resequencer.receive reseq ~channel pkt;
      Span.leave ())
    else fun ~channel pkt ->
      forwarded pkt;
      Resequencer.receive reseq ~channel pkt
  in
  let arrived (pkt : Packet.t) =
    let s = pkt.seq in
    if s >= 0 && Bytes.unsafe_get ledger.state s < Ledger.arrived then begin
      Ledger.mark ledger s Ledger.arrived;
      Float.Array.unsafe_set wire_t s (Sim.now sim)
    end
  in
  let queue_max = ref 0 in
  let striper_ref = ref None in
  let guard = ref None in
  let worsened = ref [] in
  (* Wires. ref_clean's links carry packets; ref_gray's carry the
     guard's channel tag with each packet. *)
  let send, link_stats =
    if not gray then begin
      let links =
        Array.init n_ch (fun i ->
            Link.create sim ~name:(Printf.sprintf "ch%d" i) ~rate_bps:rates.(i)
              ~prop_delay:delays.(i) ~rng:(Rng.split rng)
              ~deliver:(fun pkt ->
                arrived pkt;
                to_reseq ~channel:i pkt)
              ())
      in
      let send =
        if traced then (fun ~channel (pkt : Packet.t) ->
          Ledger.mark ledger pkt.seq Ledger.emitted;
          let l = links.(channel) in
          Span.enter Span.Link;
          ignore (Link.send l ~size:pkt.size pkt);
          let q = Link.queue_packets l in
          if q > !queue_max then queue_max := q;
          Span.leave ())
        else fun ~channel (pkt : Packet.t) ->
          Ledger.mark ledger pkt.seq Ledger.emitted;
          ignore (Link.send links.(channel) ~size:pkt.size pkt)
      in
      (send, link_stats links)
    end
    else begin
      let g =
        Channel_guard.create ~n:n_ch ~now ~sink ~deliver:to_reseq ()
      in
      guard := Some g;
      let guard_receive =
        if traced then (fun ~channel ~tag pkt ->
          Span.enter Span.Guard;
          Channel_guard.receive g ~channel ~tag pkt;
          Span.leave ())
        else fun ~channel ~tag pkt -> Channel_guard.receive g ~channel ~tag pkt
      in
      let links =
        Array.init n_ch (fun i ->
            Link.create sim ~name:(Printf.sprintf "ch%d" i) ~rate_bps:rates.(i)
              ~prop_delay:delays.(i) ~rng:(Rng.split rng) ~channel:i ~sink
              ~deliver:(fun (tag, pkt) ->
                arrived pkt;
                guard_receive ~channel:i ~tag pkt)
              ())
      in
      let tags = Channel_guard.Tx.create ~n:n_ch in
      let send =
        if traced then (fun ~channel (pkt : Packet.t) ->
          Ledger.mark ledger pkt.seq Ledger.emitted;
          let l = links.(channel) in
          Span.enter Span.Link;
          let tag = Channel_guard.Tx.next_tag tags ~channel in
          ignore (Link.send l ~size:pkt.size (tag, pkt));
          let q = Link.queue_packets l in
          if q > !queue_max then queue_max := q;
          Span.leave ())
        else fun ~channel (pkt : Packet.t) ->
          Ledger.mark ledger pkt.seq Ledger.emitted;
          let tag = Channel_guard.Tx.next_tag tags ~channel in
          ignore (Link.send links.(channel) ~size:pkt.size (tag, pkt))
      in
      (* Gray episodes. *)
      for k = 0 to episodes - 1 do
        Sim.schedule sim ~at:(episode_start k) (fun () ->
            Link.set_loss links.(1) (gray_loss ());
            Link.set_impairments links.(2) (gray_impair ()));
        Sim.schedule sim ~at:(episode_end k) (fun () ->
            Link.set_loss links.(1) (Loss.none ());
            Link.set_impairments links.(2) Impair.none)
      done;
      (* Health ticks, as in exp_gray: harvest each window's wire
         evidence, sample, and apply quarantine and probation. *)
      let h =
        Health.create
          ~live:(fun c -> c >= 0 && c < n_ch && Link.is_up links.(c))
          ~sink ~n:n_ch ()
      in
      let nominal = Array.make n_ch gray_quantum in
      let last_sent = Array.make n_ch 0 and last_lost = Array.make n_ch 0 in
      let last_sb = Array.make n_ch 0 and last_db = Array.make n_ch 0 in
      let staged = ref (Array.copy nominal) in
      let run_end = episode_end (episodes - 1) +. gray_tail +. 0.5 in
      let in_span layer f =
        if traced then begin
          Span.enter layer;
          let r = f () in
          Span.leave ();
          r
        end
        else f ()
      in
      let rec tick () =
        let striper = Option.get !striper_ref in
        let now = Sim.now sim in
        let trs =
          in_span Span.Health (fun () ->
              for c = 0 to n_ch - 1 do
                let l = links.(c) in
                let ds = Link.sent_packets l - last_sent.(c) in
                let dl = Link.lost_packets l - last_lost.(c) in
                let dsb = Link.sent_bytes l - last_sb.(c) in
                let ddb = Link.delivered_bytes l - last_db.(c) in
                last_sent.(c) <- Link.sent_packets l;
                last_lost.(c) <- Link.lost_packets l;
                last_sb.(c) <- Link.sent_bytes l;
                last_db.(c) <- Link.delivered_bytes l;
                if ds > 0 || dl > 0 then
                  Health.observe h ~channel:c ~sent:ds ~lost:dl
                    ~goodput_ratio:
                      (if dsb > 0 then
                         Float.min 1.0 (float_of_int ddb /. float_of_int dsb)
                       else 1.0)
                    ()
              done;
              Health.sample h ~now)
        in
        (* Detection is the first worsening verdict of an episode. *)
        if
          List.exists
            (function
              | Health.To_suspect _ | Health.To_quarantine _
              | Health.To_probation { from_quarantine = false; _ } -> true
              | Health.To_probation _ | Health.To_healthy _ -> false)
            trs
        then worsened := now :: !worsened;
        List.iter
          (function
            | Health.To_quarantine { channel; _ } ->
              in_span Span.Striper (fun () -> Striper.suspend_channel striper channel)
            | Health.To_probation { channel; from_quarantine = true } ->
              in_span Span.Striper (fun () -> Striper.resume_channel striper channel)
            | Health.To_suspect _ | Health.To_probation _ | Health.To_healthy _ -> ())
          trs;
        let target =
          Array.mapi
            (fun c q ->
              let s = Health.quantum_scale h c in
              if s <= 0.0 || s >= 1.0 then q
              else max large (int_of_float (float_of_int q *. s)))
            nominal
        in
        if target <> !staged
           && not (in_span Span.Reseq (fun () -> Resequencer.transition_pending reseq))
        then begin
          staged := target;
          in_span Span.Reseq (fun () -> Resequencer.retune reseq ~quanta:target);
          in_span Span.Striper (fun () -> Striper.retune striper ~quanta:target ())
        end;
        if now < run_end then Sim.schedule_after sim ~delay:gray_tick tick
      in
      Sim.schedule sim ~at:gray_tick tick;
      (send, link_stats links)
    end
  in
  let striper =
    Striper.create
      ~scheduler:(Scheduler.of_deficit ~name:"SRR" engine)
      ~marker:(Marker.make ~every_rounds:4 ())
      ~now ~sink ~emit:send ()
  in
  striper_ref := Some striper;
  (* Open-loop source: packet i is pushed at its send time whatever
     the bundle is doing. *)
  let next = ref 0 in
  let push =
    if traced then (fun p ->
      Span.enter Span.Striper;
      Striper.push striper p;
      Span.leave ())
    else Striper.push striper
  in
  let rec source () =
    let k = !next in
    push (Array.unsafe_get pkts k);
    next := k + 1;
    if k + 1 < n then schedule ~traced sim ~at:(Array.unsafe_get pkts (k + 1)).born source
  in
  Sim.schedule sim ~at:0.0 source;
  let setup_s = s_of_ns (Span.now_ns () - t_setup) in
  let events = ref 0 and pending_max = ref 0 in
  let (), wall_s, minor_words, peak_heap_words =
    measure ~heap:(not traced) (fun () ->
        drive ~traced sim ~events ~pending_max;
        match !guard with
        | Some g ->
          (* Gaps still open at the end will never fill. *)
          if traced then begin
            Span.enter Span.Guard;
            Channel_guard.flush g;
            Span.leave ()
          end
          else Channel_guard.flush g
        | None -> ())
  in
  let end_time = Sim.now sim in
  (* Fates. *)
  let reseq_pending = Resequencer.pending reseq in
  let stranded = Resequencer.drain reseq in
  let packets_in, bytes_in = Ledger.tally ledger in
  let delivered = !n_order in
  let sent_p, sent_b, lost_p = link_stats () in
  let sum = Array.fold_left ( + ) 0 in
  let pushed_bytes = sum sizes in
  let w = "ref_" ^ (if gray then "gray" else "clean") in
  let what fmt = Printf.sprintf ("%s seed %d: " ^^ fmt) w seed in
  Checks.expect failures (what "delivered packets (benchmark vs resequencer)")
    ~got:packets_in.(4) ~want:(Resequencer.delivered reseq);
  Checks.expect failures (what "packets delivered twice") ~got:ledger.delivered_twice ~want:0;
  Checks.expect failures (what "delivered bytes (record vs fates)") ~got:!delivered_bytes
    ~want:bytes_in.(4);
  Checks.expect failures (what "no-channel drops (fates vs striper)") ~got:packets_in.(0)
    ~want:(Striper.undispatched_drops striper);
  Checks.expect failures (what "pushed bytes (inputs vs striper + no-channel)")
    ~got:pushed_bytes ~want:(Striper.pushed_bytes striper + bytes_in.(0));
  Checks.expect_le failures (what "wire losses (fates vs links)") ~got:packets_in.(1)
    ~bound:(sum lost_p);
  Checks.expect_le failures (what "guard discards (fates vs guard)") ~got:packets_in.(2)
    ~bound:(match !guard with Some g -> Channel_guard.dup_discards g | None -> 0);
  Checks.expect failures (what "stranded in resequencer (fates vs resequencer)")
    ~got:packets_in.(3) ~want:reseq_pending;
  Checks.expect failures (what "stranded bytes (fates vs drain)") ~got:bytes_in.(3)
    ~want:(List.fold_left (fun a (p : Packet.t) -> a + p.size) 0 stranded);
  Checks.conservation failures ~what:(what "byte conservation")
    ~pushed:pushed_bytes ~delivered:!delivered_bytes
    ~pending:bytes_in.(3)
    ~drops:[ ("no_channel", bytes_in.(0)); ("wire_loss", bytes_in.(1)); ("guard_discard", bytes_in.(2)) ];
  (* FIFO. ref_clean has no sink, so its monitor reads the recorded
     delivery sequence afterwards. *)
  if not gray then begin
    let msink = Monitor.sink monitor in
    for i = 0 to delivered - 1 do
      let s = order.(i) in
      Sink.emit msink
        (Event.v ~time:(Float.Array.get deliver_t s) ~seq:s ~size:sizes.(s) Event.Deliver)
    done
  end;
  Checks.verdict failures ~what:(what "FIFO/liveness") (Monitor.verdict monitor);
  let inv = Checks.inversions order delivered in
  if delivered < 10_000 then
    Checks.fail failures "%s" (what "only %d deliveries; p99.9 needs 10k" delivered);
  if not gray then begin
    Checks.expect failures (what "undelivered packets") ~got:(n - delivered) ~want:0;
    Checks.expect failures (what "out-of-order deliveries") ~got:inv ~want:0
  end;
  (* Latencies. *)
  let lat = Array.init delivered (fun i ->
    let s = order.(i) in
    1e3 *. (Float.Array.get deliver_t s -. pkts.(s).born))
  in
  let hold = Array.init delivered (fun i ->
    let s = order.(i) in
    1e3 *. (Float.Array.get deliver_t s -. Float.Array.get reseq_t s))
  in
  let wire =
    let a = Array.make (n - packets_in.(0) - packets_in.(1)) 0.0 and j = ref 0 in
    for s = 0 to n - 1 do
      let t = Float.Array.get wire_t s in
      if not (Float.is_nan t) then begin
        a.(!j) <- 1e3 *. (t -. pkts.(s).born);
        incr j
      end
    done;
    a
  in
  (* Thm 5.1: per episode, the last out-of-order delivery between its
     end and the next episode's start; worst over episodes. *)
  let resync_ms, detect_ms =
    if not gray then (0.0, 0.0)
    else begin
      let window_end k = if k + 1 < episodes then episode_start (k + 1) else infinity in
      let last_inv = Array.make episodes Float.nan in
      let hi = ref (-1) in
      for i = 0 to delivered - 1 do
        let s = order.(i) in
        if s < !hi then begin
          let t = Float.Array.get deliver_t s in
          for k = 0 to episodes - 1 do
            if t >= episode_end k && t < window_end k then last_inv.(k) <- t
          done
        end
        else hi := s
      done;
      let resync = ref 0.0 and detect = ref 0.0 in
      for k = 0 to episodes - 1 do
        if not (Float.is_nan last_inv.(k)) then
          resync := Float.max !resync (1e3 *. (last_inv.(k) -. episode_end k));
        let first =
          List.fold_left
            (fun acc t ->
              if t >= episode_start k && t < window_end k then Float.min acc t else acc)
            infinity !worsened
        in
        let d = if first = infinity then gray_period else first -. episode_start k in
        detect := Float.max !detect (1e3 *. d)
      done;
      (!resync, !detect)
    end
  in
  let p50, p999 = p50_p999 lat in
  let hold_p50, hold_p999 = p50_p999 hold in
  let wire_p50, wire_p999 = p50_p999 wire in
  let fail_ratio = float_of_int (n - delivered) /. float_of_int n in
  let ooo_ratio = if delivered = 0 then 0.0 else float_of_int inv /. float_of_int delivered in
  let busy =
    let acc = ref 0.0 in
    Array.iteri (fun i b -> acc := !acc +. (float_of_int b *. 8.0 /. rates.(i))) sent_b;
    !acc /. (float_of_int n_ch *. end_time)
  in
  let g f = match !guard with Some g -> f g | None -> 0 in
  let quarantines = Counters.total_quarantines counters in
  let extras =
    [
      ("fail_ratio", fail_ratio);
      ("ooo_ratio", ooo_ratio);
      ("latency_p50_ms", p50);
      ("latency_p999_ms", p999);
      ("latency_samples", float_of_int delivered);
    ]
    @ if gray then [ ("resync_ms", resync_ms) ] else []
  in
  let fd = float_of_int (max 1 delivered) in
  let layer =
    [
      ("striper.markers_per_pkt", float_of_int (Striper.markers_sent striper) /. fd);
      ("link.util", busy);
      ("link.wire_ms_p50", wire_p50);
      ("link.wire_ms_p999", wire_p999);
      ("link.lost_ratio", float_of_int (sum lost_p) /. float_of_int (max 1 (sum sent_p)));
      ("guard.dup_discards", float_of_int (g Channel_guard.dup_discards));
      ("guard.reorder_restores", float_of_int (g Channel_guard.reorder_restores));
      ("guard.held_max", float_of_int (g Channel_guard.max_held_packets));
      ("reseq.hold_ms_p50", hold_p50);
      ("reseq.hold_ms_p999", hold_p999);
      ("reseq.buffer_hw_bytes", float_of_int (Resequencer.buffer_high_water_bytes reseq));
      ("reseq.skips", float_of_int (Resequencer.skips reseq));
      ("reseq.watchdog_skips", float_of_int (Resequencer.watchdog_skips reseq));
      ("reseq.reorder_depth_p99",
        float_of_int
          (if Resequencer.reorder_depth_samples reseq = 0 then 0
           else Resequencer.reorder_depth_percentile reseq ~p:0.99));
      ("health.quarantines", float_of_int quarantines);
      ("health.detect_ms", detect_ms);
      ("obs.events_per_pkt", float_of_int (Counters.events_seen counters) /. fd);
    ]
    @
    if traced then
      [
        ("sim.events_per_pkt", float_of_int !events /. fd);
        ("sim.pending_max", float_of_int !pending_max);
        ("link.queue_pkts_max", float_of_int !queue_max);
      ]
    else []
  in
  let det =
    List.map (fun (k, v) -> (k, exact v)) (extras @ List.filter (fun (k, _) -> k <> "sim.events_per_pkt" && k <> "sim.pending_max" && k <> "link.queue_pkts_max") layer)
    @ [
        ("pushed_bytes", string_of_int pushed_bytes);
        ("delivered_bytes", string_of_int !delivered_bytes);
        ("markers_sent", string_of_int (Striper.markers_sent striper));
        ("end_time", exact end_time);
      ]
  in
  {
    setup_s;
    wall_s;
    delivered;
    minor_words;
    peak_heap_words;
    extras;
    layer;
    det;
    failures = List.rev !failures;
  }

let ref_clean = single ~gray:false
let ref_gray = single ~gray:true

(* --- fleet_churn: the exp_fleet churn scenario over Sharded_pool ------- *)

let fleet_config =
  let rate_bps = [| 10e6; 10e6; 5e6; 2.5e6 |] in
  {
    Bundle_pool.rate_bps;
    prop_delay = [| 0.001; 0.002; 0.005; 0.010 |];
    quanta = Srr.quanta_for_rates ~rates_bps:rate_bps ~quantum_unit:1500 ();
    marker_every = 4;
    guard = false;
    discipline = Bundle_pool.Srr;
  }

let fleet_bundles = 25_000
let arrival_rate = 2000.0
let mean_life = 0.5
let packet_rate = 100_000.0
let min_measured_life = 0.02

(* The BENCH_fleet.json anchor: seed 42, one domain. *)
let anchor_seed = 42
let anchor_delivered = 1_437_930
let anchor_markers = 78_300

type recorder = {
  acquire : at:float -> int;
  release : at:float -> int -> unit;
  push : at:float -> int -> size:int -> unit;
}

(* exp_fleet's generation pass, op for op: a protocol-free simulation
   of Poisson bundle arrivals, exponential lifetimes, and a Poisson
   packet process over the live bundles. Returns (pushes, pushed bytes). *)
let fleet_generate ~seed ~bundles r =
  let gsim = Sim.create () in
  let rng = Rng.create seed in
  let arrivals_rng = Rng.split rng in
  let life_rng = Rng.split rng in
  let traffic_rng = Rng.split rng in
  let size_rng = Rng.split rng in
  let gen_size = Stripe_workload.Genpkt.bimodal ~rng:size_rng ~small:200 ~large:1000 () in
  let ids = ref (Array.make 1024 0) in
  let pos = ref (Array.make 1024 (-1)) in
  let n_ids = ref 0 in
  let acquired = ref 0 in
  let pushes = ref 0 and pushed_bytes = ref 0 in
  let add_live id =
    if !n_ids = Array.length !ids then begin
      let bigger = Array.make (2 * !n_ids) 0 in
      Array.blit !ids 0 bigger 0 !n_ids;
      ids := bigger
    end;
    !ids.(!n_ids) <- id;
    if id >= Array.length !pos then begin
      let bigger = Array.make (2 * (id + 1)) (-1) in
      Array.blit !pos 0 bigger 0 (Array.length !pos);
      pos := bigger
    end;
    !pos.(id) <- !n_ids;
    incr n_ids
  in
  let remove_live id =
    let i = !pos.(id) in
    let last = !ids.(!n_ids - 1) in
    !ids.(i) <- last;
    !pos.(last) <- i;
    !pos.(id) <- -1;
    decr n_ids
  in
  let arrivals_done = ref false in
  let start_bundle () =
    let id = r.acquire ~at:(Sim.now gsim) in
    incr acquired;
    add_live id;
    let life = Rng.exponential life_rng ~mean:mean_life in
    Sim.schedule_after gsim ~delay:life (fun () ->
        remove_live id;
        r.release ~at:(Sim.now gsim) id)
  in
  let rec arrival_tick () =
    if !acquired < bundles then begin
      start_bundle ();
      Sim.schedule_after gsim
        ~delay:(Rng.exponential arrivals_rng ~mean:(1.0 /. arrival_rate))
        arrival_tick
    end
    else arrivals_done := true
  in
  let rec traffic_tick () =
    if not (!arrivals_done && !n_ids = 0) then begin
      if !n_ids > 0 then begin
        let id = !ids.(Rng.int traffic_rng !n_ids) in
        let size = gen_size () in
        incr pushes;
        pushed_bytes := !pushed_bytes + size;
        r.push ~at:(Sim.now gsim) id ~size
      end;
      Sim.schedule_after gsim
        ~delay:(Rng.exponential traffic_rng ~mean:(1.0 /. packet_rate))
        traffic_tick
    end
  in
  let steady = int_of_float (arrival_rate *. mean_life) in
  for _ = 1 to min steady bundles do
    start_bundle ()
  done;
  arrival_tick ();
  traffic_tick ();
  Sim.run gsim;
  (!pushes, !pushed_bytes)

let sharded_recorder ~seed =
  let pool =
    Sharded_pool.create ~clock:Unix.gettimeofday ~domains:1 ~seed fleet_config
  in
  ( pool,
    {
      acquire = (fun ~at -> Sharded_pool.acquire pool ~at);
      release = (fun ~at id -> Sharded_pool.release pool ~at id);
      push = (fun ~at id ~size -> Sharded_pool.push pool ~at id ~size);
    } )

let share_err_p99 (gens : Sharded_pool.gen_report array) =
  let rates =
    Array.of_list
      (List.filter_map
         (fun (g : Sharded_pool.gen_report) ->
           let life = g.death -. g.birth in
           if life >= min_measured_life then
             Some (float_of_int g.delivered_bytes /. life)
           else None)
         (Array.to_list gens))
  in
  let n = Array.length rates in
  if n = 0 then 0.0
  else begin
    let mean = Array.fold_left ( +. ) 0.0 rates /. float_of_int n in
    let e = Array.map (fun r -> Float.abs ((r /. mean) -. 1.0)) rates in
    Array.sort Float.compare e;
    (* exp_fleet's percentile, so the figure matches BENCH_fleet.json. *)
    e.(min (n - 1) (max 0 (int_of_float (0.99 *. float_of_int (n - 1)))))
  end

(* The untraced fleet rep: record the churn into a one-domain
   Sharded_pool (set-up), then replay it (timed). *)
let fleet_sharded ~seed ?(bundles = fleet_bundles) () =
  let failures = ref [] in
  let t_setup = Span.now_ns () in
  let pool, r = sharded_recorder ~seed in
  let pushes, pushed_bytes = fleet_generate ~seed ~bundles r in
  let setup_s = s_of_ns (Span.now_ns () - t_setup) in
  let peak_live = Sharded_pool.peak_live pool in
  let report, wall_s, minor_words, peak_heap_words =
    measure ~heap:true (fun () -> Sharded_pool.run pool)
  in
  let what fmt = Printf.sprintf ("fleet_churn seed %d: " ^^ fmt) seed in
  let shard_sum f = Array.fold_left (fun a s -> a + f s) 0 report.shards in
  Checks.expect failures (what "delivered (report vs shards)")
    ~got:report.delivered_packets
    ~want:(shard_sum (fun (s : Sharded_pool.shard_report) -> s.delivered_packets));
  Checks.expect failures (what "markers (report vs shards)") ~got:report.markers_sent
    ~want:(shard_sum (fun (s : Sharded_pool.shard_report) -> s.markers_sent));
  if seed = anchor_seed && bundles = fleet_bundles then begin
    Checks.expect failures (what "delivered vs BENCH_fleet.json anchor")
      ~got:report.delivered_packets ~want:anchor_delivered;
    Checks.expect failures (what "markers vs BENCH_fleet.json anchor")
      ~got:report.markers_sent ~want:anchor_markers
  end;
  let share = share_err_p99 report.gens in
  let delivered = report.delivered_packets in
  let max_shard =
    Array.fold_left (fun a (s : Sharded_pool.shard_report) -> Float.max a s.wall_s) 0.0 report.shards
  in
  let extras =
    [
      ("fail_ratio", float_of_int (pushes - delivered) /. float_of_int pushes);
      ("share_err_p99", share);
    ]
  in
  {
      setup_s;
      wall_s;
      delivered;
      minor_words;
      peak_heap_words;
      extras;
      layer =
        [
          ("shard.record_s", setup_s);
          ("shard.replay_s", max_shard);
          ("shard.merge_s", report.wall_s -. max_shard);
        ];
      det =
        [
          ("delivered", string_of_int delivered);
          ("delivered_bytes", string_of_int report.delivered_bytes);
          ("markers", string_of_int report.markers_sent);
          ("pushes", string_of_int pushes);
          ("pushed_bytes", string_of_int pushed_bytes);
          ("peak_live", string_of_int peak_live);
          ("fail_ratio", exact (List.assoc "fail_ratio" extras));
          ("share_err_p99", exact share);
          ("end_time", exact report.end_time);
        ];
      failures = List.rev !failures;
    }

(* A recorded op tape, for driving a Bundle_pool directly. *)
type tape = {
  mutable len : int;
  mutable kind : Bytes.t;
  mutable at : float array;
  mutable slot : int array;
  mutable arg : int array;
}

let op_acquire = 0
let op_release = 1
let op_push = 2

let tape_push tp ~op ~at ~slot ~arg =
  if tp.len = Array.length tp.at then begin
    let cap = max 1024 (2 * tp.len) in
    let grow a z =
      let b = Array.make cap z in
      Array.blit a 0 b 0 tp.len;
      b
    in
    let k = Bytes.make cap '\000' in
    Bytes.blit tp.kind 0 k 0 tp.len;
    tp.kind <- k;
    tp.at <- grow tp.at 0.0;
    tp.slot <- grow tp.slot 0;
    tp.arg <- grow tp.arg 0
  end;
  Bytes.unsafe_set tp.kind tp.len (Char.unsafe_chr op);
  tp.at.(tp.len) <- at;
  tp.slot.(tp.len) <- slot;
  tp.arg.(tp.len) <- arg;
  tp.len <- tp.len + 1

(* Record the churn for [seed]; slot ids come from a Sharded_pool
   recorder, whose allocator is the pool's. *)
let fleet_tape ~seed ~bundles =
  let tp = { len = 0; kind = Bytes.empty; at = [||]; slot = [||]; arg = [||] } in
  let pool, r = sharded_recorder ~seed in
  let r =
    {
      acquire =
        (fun ~at ->
          let id = r.acquire ~at in
          tape_push tp ~op:op_acquire ~at ~slot:id ~arg:0;
          id);
      release =
        (fun ~at id ->
          r.release ~at id;
          tape_push tp ~op:op_release ~at ~slot:id ~arg:0);
      push =
        (fun ~at id ~size ->
          r.push ~at id ~size;
          tape_push tp ~op:op_push ~at ~slot:id ~arg:size);
    }
  in
  let pushes, pushed_bytes = fleet_generate ~seed ~bundles r in
  (tp, pushes, pushed_bytes, Sharded_pool.peak_live pool)

(* Drive a Bundle_pool from the tape exactly as Sharded_pool's one-shard
   replay does (same local slot numbering, same generator, one op event
   chained to the next), so the run is byte-identical to it. Every
   generation is harvested at release for conservation. With
   [stamp_seq] the pool's FIFO monitor is armed. *)
let fleet_direct ~seed ~traced ~stamp_seq ?(bundles = fleet_bundles) () =
  let failures = ref [] in
  let t_setup = Span.now_ns () in
  let tp, pushes, pushed_bytes, peak_live_rec = fleet_tape ~seed ~bundles in
  let max_slot = ref 0 in
  for i = 0 to tp.len - 1 do
    if tp.slot.(i) > !max_slot then max_slot := tp.slot.(i)
  done;
  let local = Array.make (!max_slot + 1) (-1) in
  let n_slots = ref 0 in
  for i = 0 to tp.len - 1 do
    if Char.code (Bytes.get tp.kind i) = op_acquire && local.(tp.slot.(i)) < 0 then begin
      local.(tp.slot.(i)) <- !n_slots;
      incr n_slots
    end
  done;
  let sim = Sim.create () in
  let pool =
    Bundle_pool.create ~initial_capacity:(max 1 !n_slots) ~stamp_seq
      ~rng:(Rng.stream ~seed 0) ~sim fleet_config
  in
  let setup_s = s_of_ns (Span.now_ns () - t_setup) in
  let gen_pushed_b = ref 0 and gen_delivered_b = ref 0 and gen_pushed = ref 0 in
  let bad_gens = ref 0 and other_drops = ref 0 in
  let peak_live = ref 0 in
  (* End-of-life harvest: the only drop cause in a clean churn is the
     release itself (the in-flight wire tail and what the resequencer
     still buffers). *)
  let harvest l =
    let pp = Bundle_pool.pushed_packets pool l in
    let dp = Bundle_pool.delivered_packets pool l in
    let tail = pp - dp - Bundle_pool.rx_pending_packets pool l in
    if tail < 0 || tail > Bundle_pool.in_flight_packets pool l then incr bad_gens;
    other_drops :=
      !other_drops + Bundle_pool.carrier_drops pool l
      + Bundle_pool.wire_loss_drops pool l
      + Bundle_pool.receiver_down_drops pool l
      + Bundle_pool.rx_wiped_packets pool l
      + Bundle_pool.rx_epoch_discards pool l
      + Bundle_pool.sender_down_drops pool l
      + Bundle_pool.no_channel_drops pool l;
    gen_pushed := !gen_pushed + pp;
    gen_pushed_b := !gen_pushed_b + Bundle_pool.pushed_bytes pool l;
    gen_delivered_b := !gen_delivered_b + Bundle_pool.delivered_bytes pool l
  in
  let i = ref 0 in
  let rec pump () =
    if !i < tp.len then begin
      let k = !i in
      schedule ~traced sim ~at:tp.at.(k) (fun () ->
          let l = local.(tp.slot.(k)) in
          let op = Char.code (Bytes.unsafe_get tp.kind k) in
          if op = op_acquire then begin
            if traced then Span.enter Span.Pool_acquire;
            ignore (Bundle_pool.acquire_slot pool l);
            if traced then Span.leave ();
            let live = Bundle_pool.live_bundles pool in
            if live > !peak_live then peak_live := live
          end
          else if op = op_release then begin
            if traced then Span.enter Span.Bench;
            harvest l;
            if traced then (Span.leave (); Span.enter Span.Pool_release);
            Bundle_pool.release pool l;
            if traced then Span.leave ()
          end
          else begin
            if traced then Span.enter Span.Pool_push;
            Bundle_pool.push pool l ~size:tp.arg.(k);
            if traced then Span.leave ()
          end;
          incr i;
          pump ())
    end
  in
  pump ();
  let events = ref 0 and pending_max = ref 0 in
  let (), wall_s, minor_words, peak_heap_words =
    measure ~heap:(not traced) (fun () -> drive ~traced sim ~events ~pending_max)
  in
  let delivered = Bundle_pool.total_delivered_packets pool in
  let delivered_bytes = Bundle_pool.total_delivered_bytes pool in
  let markers = Bundle_pool.markers_sent pool in
  let what fmt = Printf.sprintf ("fleet_churn seed %d (direct pool): " ^^ fmt) seed in
  Checks.expect failures (what "bundles live at the end") ~got:(Bundle_pool.live_bundles pool) ~want:0;
  Checks.expect failures (what "generations with an impossible fate split") ~got:!bad_gens ~want:0;
  Checks.expect failures (what "drops with a cause a clean churn cannot have") ~got:!other_drops ~want:0;
  Checks.expect failures (what "pushed packets (inputs vs pool)") ~got:!gen_pushed ~want:pushes;
  Checks.expect failures (what "pushed bytes (inputs vs pool)") ~got:!gen_pushed_b ~want:pushed_bytes;
  Checks.expect failures (what "delivered bytes (generations vs pool)") ~got:!gen_delivered_b
    ~want:delivered_bytes;
  Checks.expect failures (what "peak live (recorder vs pool)") ~got:!peak_live ~want:peak_live_rec;
  Checks.conservation failures ~what:(what "byte conservation") ~pushed:pushed_bytes
    ~delivered:delivered_bytes ~pending:0
    ~drops:[ ("release_discard", !gen_pushed_b - !gen_delivered_b) ];
  if stamp_seq then
    Checks.expect failures (what "FIFO violations (pool monitor)")
      ~got:(Bundle_pool.total_fifo_violations pool) ~want:0;
  let fd = float_of_int (max 1 delivered) in
  {
      setup_s;
      wall_s;
      delivered;
      minor_words;
      peak_heap_words;
      extras = [];
      layer =
        [
          ("pool.recycles", float_of_int (Bundle_pool.recycles pool));
          ("pool.peak_live", float_of_int !peak_live);
          ("pool.markers_per_pkt", float_of_int markers /. fd);
        ]
        @
        if traced then
          [
            ("sim.events_per_pkt", float_of_int !events /. fd);
            ("sim.pending_max", float_of_int !pending_max);
          ]
        else [];
      det =
        [
          ("delivered", string_of_int delivered);
          ("delivered_bytes", string_of_int delivered_bytes);
          ("markers", string_of_int markers);
          ("pushes", string_of_int pushes);
          ("pushed_bytes", string_of_int pushed_bytes);
          ("peak_live", string_of_int !peak_live);
          ("end_time", exact (Sim.now sim));
        ];
      failures = List.rev !failures;
    }
