(* Many-bundle fleet benchmark: the scale gate.

   Reference scenario: a Bundle_pool of 4-channel SRR bundles
   (heterogeneous rates, markers every 4 rounds, logical reception)
   churned by a Poisson process — bundles arrive at a fixed rate, live
   an exponential lifetime, and die; a global Poisson packet process
   sprays bimodal data packets uniformly over whatever bundles are
   alive.

   The workload is generated once (a cheap protocol-free pass) and
   recorded into a [Stripe_fleet.Sharded_pool], which replays it across
   [--domains N] OCaml 5 domains, each shard carrying its slice of the
   fleet on its own Sim event loop (DESIGN.md §10). The partition is by
   pool slot, so the replay is bit-deterministic in the shard count:
   [--domains 1] reproduces the legacy single-pool run byte-identically
   (the BENCH_fleet.json anchor), and any N merges to the same
   delivered/markers/share numbers — only wall-clock changes.

   Reported:
   - aggregate pps: data packets delivered per wall-clock second across
     the fleet — the number the CI gate protects; with [--domains N],
     also per-shard pps and a scaling-efficiency line;
   - minor words allocated by the replay per delivered packet, the
     fleet's allocation gate (single-domain runs);
   - per-bundle fairness: every bundle runs the same configuration and
     sees the same arrival statistics, so delivered goodput normalized
     by lifetime should be equal across bundles. The p50/p99 of the
     relative share error |rate/mean - 1| measure how uniformly the
     engine serves 10k+ bundles through churn (the tail is dominated by
     short-lived bundles' Poisson variance, which is why the committed
     numbers carry it: a scheduling bug that starves recycled slots
     shows up as a p99 step).

   Usage:
     dune exec bench/exp_fleet.exe --                  # full run, table
     dune exec bench/exp_fleet.exe -- --quick          # 10k bundles
     dune exec bench/exp_fleet.exe -- --bundles 50000  # custom fleet
     dune exec bench/exp_fleet.exe -- --domains 4      # 4 shards (0 = auto)
     dune exec bench/exp_fleet.exe -- --json FILE      # machine output
     dune exec bench/exp_fleet.exe -- --check FILE
       # CI gate: exit 1 if pps drops >30% below FILE's committed
       # numbers, if minor words/packet leaves a +-1% band around
       # them (single-domain runs), or if the protocol aggregates (bundles, peak live,
       # delivered, markers, share p50/p99, simulated seconds) differ
       # from the committed single-domain anchor — the latter holds for
       # every --domains N, so a multicore run is gated on aggregate
       # equality, not wall-clock.

   Like exp_throughput, the scenario runs [--repeat] times and the
   fastest run is reported (wall-clock noise is one-sided); the
   simulated behavior is seed-deterministic, so fairness numbers are
   identical across repeats and domain counts. *)

open Stripe_netsim
open Stripe_core
module Bundle_pool = Stripe_fleet.Bundle_pool
module Sharded_pool = Stripe_fleet.Sharded_pool

let reference_rates = [| 10e6; 10e6; 5e6; 2.5e6 |]
let reference_delays = [| 0.001; 0.002; 0.005; 0.010 |]
let reference_seed = 42

(* Churn process: steady-state population = arrival_rate * mean_life. *)
let arrival_rate = 2000.0 (* bundles per simulated second *)
let mean_life = 0.5 (* seconds *)
let packet_rate = 100_000.0 (* fleet-wide data packets per simulated second *)

(* Lifetimes shorter than this yield goodput estimates too noisy to
   count against the equal-share reference. *)
let min_measured_life = 0.02

type result = {
  domains : int;
  bundles : int;
  peak_live : int;
  delivered : int;
  markers : int;
  wall_s : float;
  pps : float;
  minor_words_per_packet : float;
  share_p50 : float;
  share_p99 : float;
  sim_seconds : float;
  efficiency : float;
  shards : Sharded_pool.shard_report array;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (p *. float_of_int (n - 1)) in
    sorted.(min (n - 1) (max 0 i))

let run_once ~total_bundles ~domains () =
  (* Generation pass: protocol-free, on a private sim. The RNG stream
     structure and the dense live-table dynamics are identical to the
     legacy single-pool loop, so the recorded op tape is the exact op
     sequence that loop issued against its pool. *)
  let gsim = Sim.create () in
  let rng = Rng.create reference_seed in
  let arrivals_rng = Rng.split rng in
  let life_rng = Rng.split rng in
  let traffic_rng = Rng.split rng in
  let size_rng = Rng.split rng in
  let pool =
    Sharded_pool.create ~clock:Unix.gettimeofday ~domains
      ~seed:reference_seed
      {
        Bundle_pool.rate_bps = reference_rates;
        prop_delay = reference_delays;
        quanta =
          Srr.quanta_for_rates ~rates_bps:reference_rates ~quantum_unit:1500 ();
        marker_every = 4;
        guard = false;
        discipline = Bundle_pool.Srr;
      }
  in
  let gen_size = Stripe_workload.Genpkt.bimodal ~rng:size_rng ~small:200 ~large:1000 () in
  (* Dense table of live bundle ids for O(1) uniform picks; [pos] maps
     a slot id back to its dense index for swap-removal. *)
  let ids = ref (Array.make 1024 0) in
  let pos = ref (Array.make 1024 (-1)) in
  let n_ids = ref 0 in
  let add_live id =
    if !n_ids = Array.length !ids then begin
      let bigger = Array.make (2 * !n_ids) 0 in
      Array.blit !ids 0 bigger 0 !n_ids;
      ids := bigger
    end;
    !ids.(!n_ids) <- id;
    (if id >= Array.length !pos then begin
       let bigger = Array.make (2 * (id + 1)) (-1) in
       Array.blit !pos 0 bigger 0 (Array.length !pos);
       pos := bigger
     end);
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
    let id = Sharded_pool.acquire pool ~at:(Sim.now gsim) in
    add_live id;
    let life = Rng.exponential life_rng ~mean:mean_life in
    Sim.schedule_after gsim ~delay:life (fun () ->
        remove_live id;
        Sharded_pool.release pool ~at:(Sim.now gsim) id)
  in
  let rec arrival_tick () =
    if Sharded_pool.total_acquired pool < total_bundles then begin
      start_bundle ();
      Sim.schedule_after gsim
        ~delay:(Rng.exponential arrivals_rng ~mean:(1.0 /. arrival_rate))
        arrival_tick
    end
    else arrivals_done := true
  in
  let rec traffic_tick () =
    (* The packet process outlives the arrival process just long enough
       to keep the tail population loaded; it stops once the last
       bundle has departed, letting the run drain to a natural end. *)
    if not (!arrivals_done && !n_ids = 0) then begin
      if !n_ids > 0 then begin
        let id = !ids.(Rng.int traffic_rng !n_ids) in
        Sharded_pool.push pool ~at:(Sim.now gsim) id ~size:(gen_size ())
      end;
      Sim.schedule_after gsim
        ~delay:(Rng.exponential traffic_rng ~mean:(1.0 /. packet_rate))
        traffic_tick
    end
  in
  (* Warm start at the steady-state population so the measured window
     is churn around equilibrium rather than a cold ramp. *)
  let steady = int_of_float (arrival_rate *. mean_life) in
  for _ = 1 to min steady total_bundles do
    start_bundle ()
  done;
  arrival_tick ();
  traffic_tick ();
  Sim.run gsim;
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let report = Sharded_pool.run pool in
  let minor_words = Gc.minor_words () -. w0 in
  (* Internal merge consistency: the aggregate the report carries must
     equal the sum of its per-shard entries — always on, every run. *)
  let shard_sum f =
    Array.fold_left (fun acc s -> acc + f s) 0 report.Sharded_pool.shards
  in
  assert (
    report.Sharded_pool.delivered_packets
    = shard_sum (fun s -> s.Sharded_pool.delivered_packets)
    && report.Sharded_pool.markers_sent
       = shard_sum (fun s -> s.Sharded_pool.markers_sent));
  let shares = ref (Array.make 4096 0.0) in
  let n_shares = ref 0 in
  Array.iter
    (fun (g : Sharded_pool.gen_report) ->
      let life = g.death -. g.birth in
      if life >= min_measured_life then begin
        if !n_shares = Array.length !shares then begin
          let bigger = Array.make (2 * !n_shares) 0.0 in
          Array.blit !shares 0 bigger 0 !n_shares;
          shares := bigger
        end;
        !shares.(!n_shares) <- float_of_int g.delivered_bytes /. life;
        incr n_shares
      end)
    report.Sharded_pool.gens;
  let n = !n_shares in
  let errors =
    let s = Array.sub !shares 0 n in
    let mean = Array.fold_left ( +. ) 0.0 s /. float_of_int (max 1 n) in
    let e = Array.map (fun r -> Float.abs ((r /. mean) -. 1.0)) s in
    Array.sort compare e;
    e
  in
  {
    domains = report.Sharded_pool.domains;
    bundles = report.Sharded_pool.acquired;
    peak_live = report.Sharded_pool.peak_live;
    delivered = report.Sharded_pool.delivered_packets;
    markers = report.Sharded_pool.markers_sent;
    wall_s = report.Sharded_pool.wall_s;
    pps =
      float_of_int report.Sharded_pool.delivered_packets
      /. report.Sharded_pool.wall_s;
    minor_words_per_packet =
      minor_words /. float_of_int report.Sharded_pool.delivered_packets;
    share_p50 = percentile errors 0.50;
    share_p99 = percentile errors 0.99;
    sim_seconds = report.Sharded_pool.end_time;
    efficiency = report.Sharded_pool.efficiency;
    shards = report.Sharded_pool.shards;
  }

(* The row tag names the event queue the anchors were measured on;
   quick (10k-bundle) rows carry a suffix so [--check] compares
   like-for-like. *)
let tag ~quick = if quick then "calendar-quick" else "calendar"
let domain_tag domains tag = Printf.sprintf "%s-d%d" tag domains

(* Everything but wall-clock is seed-deterministic and independent of
   the domain count, so it is gated exactly against the single-domain
   anchor; pps gets a floor on single-domain runs only (CI runners may
   be single-core, so a sharded run's pps is not comparable). Minor
   words per delivered packet, deterministic per build, get a band on
   single-domain runs; with more domains [Gc.minor_words] sees only the
   calling domain's shard and the merge, so the figure is reported. *)
let fields ~domains =
  Gate.
    [
      int ~kind:Report "domains" (fun r -> r.domains);
      int "bundles" (fun r -> r.bundles);
      int "peak_live" (fun r -> r.peak_live);
      int "delivered" (fun r -> r.delivered);
      int "markers" (fun r -> r.markers);
      float ~kind:Report "wall_s" "%.4f" (fun r -> r.wall_s);
      float
        ~kind:(if domains = 1 then Floor else Report)
        "pps" "%.1f"
        (fun r -> r.pps);
      float
        ~kind:(if domains = 1 then Band else Report)
        "minor_words_per_packet" "%.2f"
        (fun r -> r.minor_words_per_packet);
      float "share_p50" "%.4f" (fun r -> r.share_p50);
      float "share_p99" "%.4f" (fun r -> r.share_p99);
      float "sim_seconds" "%.4f" (fun r -> r.sim_seconds);
    ]

let json_of_shard (s : Sharded_pool.shard_report) =
  Printf.sprintf
    "{\"shard\":%d,\"slots\":%d,\"generations\":%d,\"delivered\":%d,\"markers\":%d,\"wall_s\":%.4f}"
    s.Sharded_pool.shard s.Sharded_pool.slots s.Sharded_pool.generations
    s.Sharded_pool.delivered_packets s.Sharded_pool.markers_sent
    s.Sharded_pool.wall_s

let json_of_result ~tag r =
  let extra =
    if r.domains = 1 then []
    else
      [
        Printf.sprintf "\"efficiency\":%.3f" r.efficiency;
        Printf.sprintf "\"shards\":[%s]"
          (String.concat "," (Array.to_list (Array.map json_of_shard r.shards)));
      ]
  in
  Gate.row ~key:"engine" ~tag ~extra (fields ~domains:r.domains) r

let print_result ~tag r =
  Printf.printf
    "  %-14s %6d bundles (peak %4d live)  %8d pkts  %6.3f s wall  %9.0f \
     pkts/s  %5.2f minor words/pkt  share err p50 %.3f p99 %.3f\n\
     %!"
    tag r.bundles r.peak_live r.delivered r.wall_s r.pps
    r.minor_words_per_packet r.share_p50 r.share_p99;
  if r.domains > 1 then begin
    let pps_of (s : Sharded_pool.shard_report) =
      if s.Sharded_pool.wall_s > 0.0 then
        float_of_int s.Sharded_pool.delivered_packets /. s.Sharded_pool.wall_s
      else 0.0
    in
    Printf.printf "  %-14s %d domains: shard pps [%s]  efficiency %.0f%%\n%!" ""
      r.domains
      (String.concat " "
         (Array.to_list
            (Array.map (fun s -> Printf.sprintf "%.0fk" (pps_of s /. 1e3))
               r.shards)))
      (100.0 *. r.efficiency)
  end

let best_of ~repeat ~total_bundles ~domains () =
  Gate.best_of ~repeat ~pps:(fun r -> r.pps) (run_once ~total_bundles ~domains)

let quick_bundles = 10_000
let full_bundles = 25_000

let () =
  let quick = ref false in
  let bundles = ref None in
  let repeat = ref 3 in
  let domains = ref 1 in
  let opts =
    Gate.parse "exp_fleet"
      [
        Gate.Switch ("--quick", fun () -> quick := true);
        Gate.Value ("--bundles", "N", fun v -> bundles := Some (int_of_string v));
        Gate.Value ("--repeat", "N", fun v -> repeat := max 1 (int_of_string v));
        Gate.Value
          ( "--domains",
            "N",
            fun v -> domains := Sharded_pool.resolve_domains (int_of_string v) );
      ]
  in
  let domains = !domains in
  let total_bundles =
    match !bundles with
    | Some n -> n
    | None -> if !quick then quick_bundles else full_bundles
  in
  Printf.printf
    "exp_fleet: %d bundles x 4ch SRR markers=4, Poisson churn (%.0f/s, mean \
     life %.2fs), %.0fk pkts/s offered, %d domain%s, best of %d\n\
     %!"
    total_bundles arrival_rate mean_life
    (packet_rate /. 1000.0)
    domains
    (if domains = 1 then "" else "s")
    !repeat;
  let r = best_of ~repeat:!repeat ~total_bundles ~domains () in
  (* The committed anchor entries are single-domain; a multi-domain run
     tags its entries with the domain count and is gated purely on
     aggregate equality against the anchor. *)
  let anchor = tag ~quick:!quick in
  let entry_tag ~anchor r =
    if r.domains = 1 then anchor else domain_tag r.domains anchor
  in
  print_result ~tag:anchor r;
  Option.iter
    (fun file ->
      (* A full-run export also measures and embeds the quick size, so the
         committed file supports like-for-like [--quick --check] in CI. *)
      let quick_rows =
        if !quick then []
        else
          let q =
            best_of ~repeat:!repeat ~total_bundles:quick_bundles ~domains ()
          in
          [ json_of_result ~tag:(entry_tag ~anchor:(tag ~quick:true) q) q ]
      in
      Gate.write file
        ~scenario:
          "bundle-pool fleet, 4ch SRR markers=4, poisson churn 2000/s life \
           0.5s, 100k pps offered"
        ~header:[ ("bundles", string_of_int total_bundles) ]
        ~array:"engines"
        (json_of_result ~tag:(entry_tag ~anchor r) r :: quick_rows))
    opts.json;
  Option.iter
    (fun file ->
      Gate.check file ~key:"engine" (fields ~domains:r.domains) [ (anchor, r) ])
    opts.check;
  Gate.finish ()
