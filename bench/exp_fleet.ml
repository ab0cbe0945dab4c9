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
     dune exec bench/exp_fleet.exe -- --check FILE --max-regress 0.30
       # CI gate: exit 1 if pps drops >30% below FILE's committed
       # numbers, or if the protocol aggregates (delivered, markers,
       # share p50/p99) drift from the committed single-domain anchor —
       # the latter holds for every --domains N, so a multicore run is
       # gated on aggregate equality, not wall-clock.

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
  let report = Sharded_pool.run pool in
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

let json_of_shard (s : Sharded_pool.shard_report) =
  Printf.sprintf
    "{\"shard\":%d,\"slots\":%d,\"generations\":%d,\"delivered\":%d,\"markers\":%d,\"wall_s\":%.4f}"
    s.Sharded_pool.shard s.Sharded_pool.slots s.Sharded_pool.generations
    s.Sharded_pool.delivered_packets s.Sharded_pool.markers_sent
    s.Sharded_pool.wall_s

let json_of_result ~tag r =
  let shard_part =
    if r.domains = 1 then ""
    else
      Printf.sprintf ",\"efficiency\":%.3f,\"shards\":[%s]" r.efficiency
        (String.concat ","
           (Array.to_list (Array.map json_of_shard r.shards)))
  in
  Printf.sprintf
    "{\"engine\":\"%s\",\"domains\":%d,\"bundles\":%d,\"peak_live\":%d,\"delivered\":%d,\"markers\":%d,\"wall_s\":%.4f,\"pps\":%.1f,\"share_p50\":%.4f,\"share_p99\":%.4f,\"sim_seconds\":%.4f%s}"
    tag r.domains r.bundles r.peak_live r.delivered r.markers
    r.wall_s r.pps r.share_p50 r.share_p99 r.sim_seconds shard_part

let print_result ~tag r =
  Printf.printf
    "  %-14s %6d bundles (peak %4d live)  %8d pkts  %6.3f s wall  %9.0f \
     pkts/s  share err p50 %.3f p99 %.3f\n\
     %!"
    tag r.bundles r.peak_live r.delivered r.wall_s r.pps r.share_p50
    r.share_p99;
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

(* Same minimal committed-JSON scanner as exp_throughput: find
   "FIELD":NUMBER after an "engine":"ENGINE" tag. *)
let scan_number ~engine ~field path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let find needle from =
    let nl = String.length needle and sl = String.length s in
    let rec go i =
      if i + nl > sl then None
      else if String.sub s i nl = needle then Some (i + nl)
      else go (i + 1)
    in
    go from
  in
  match find (Printf.sprintf "\"engine\":\"%s\"" engine) 0 with
  | None -> None
  | Some after_tag -> (
    match find (Printf.sprintf "\"%s\":" field) after_tag with
    | None -> None
    | Some p ->
      let stop = ref p in
      while
        !stop < String.length s
        && (match s.[!stop] with
           | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.sub s p (!stop - p)))

let best_of ~repeat ~total_bundles ~domains () =
  let best = ref (run_once ~total_bundles ~domains ()) in
  for _ = 2 to repeat do
    let r = run_once ~total_bundles ~domains () in
    if r.pps > !best.pps then best := r
  done;
  !best

let quick_bundles = 10_000
let full_bundles = 25_000

let () =
  let quick = ref false in
  let bundles = ref None in
  let json_out = ref None in
  let check = ref None in
  let max_regress = ref 0.30 in
  let repeat = ref 3 in
  let domains = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--bundles" :: v :: rest ->
      bundles := Some (int_of_string v);
      parse rest
    | "--repeat" :: v :: rest ->
      repeat := max 1 (int_of_string v);
      parse rest
    | "--domains" :: v :: rest ->
      domains := Sharded_pool.resolve_domains (int_of_string v);
      parse rest
    | "--json" :: file :: rest ->
      json_out := Some file;
      parse rest
    | "--check" :: file :: rest ->
      check := Some file;
      parse rest
    | "--max-regress" :: v :: rest ->
      max_regress := float_of_string v;
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "usage: exp_fleet [--quick] [--bundles N] [--repeat N] [--domains N] \
         [--json FILE] [--check FILE] [--max-regress F] (got %s)\n"
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
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
  (match !json_out with
  | None -> ()
  | Some file ->
    (* A full-run export also measures and embeds the quick size, so the
       committed file supports like-for-like [--quick --check] in CI. *)
    let quick_entries =
      if !quick then []
      else
        let q =
          best_of ~repeat:!repeat ~total_bundles:quick_bundles ~domains ()
        in
        [ json_of_result ~tag:(entry_tag ~anchor:(tag ~quick:true) q) q ]
    in
    let entries =
      json_of_result ~tag:(entry_tag ~anchor r) r :: quick_entries
    in
    let oc = open_out file in
    Printf.fprintf oc
      "{\n\
      \  \"scenario\": \"bundle-pool fleet, 4ch SRR markers=4, poisson churn \
       2000/s life 0.5s, 100k pps offered\",\n\
      \  \"bundles\": %d,\n\
      \  \"engines\": [\n    %s\n  ]\n\
       }\n"
      total_bundles
      (String.concat ",\n    " entries);
    close_out oc;
    Printf.printf "  wrote %s\n%!" file);
  match !check with
  | None -> ()
  | Some file ->
    if not (Sys.file_exists file) then begin
      Printf.eprintf
        "  FAIL: baseline file %s does not exist — regenerate it with --json \
         %s and commit it\n"
        file file;
      exit 1
    end;
    let fail = ref false in
    (* Wall-clock gate: single-domain only (CI runners may be
       single-core, so a sharded run's pps is not comparable). *)
    (if r.domains = 1 then
       match scan_number ~engine:anchor ~field:"pps" file with
       | None ->
         Printf.eprintf
           "  FAIL: no committed \"pps\" entry for engine \"%s\" in %s — \
            regenerate the baseline with --json\n"
           anchor file;
         fail := true
       | Some committed ->
         let floor = committed *. (1.0 -. !max_regress) in
         Printf.printf
           "  check %-16s %.0f pps vs committed %.0f (floor %.0f)\n" anchor
           r.pps committed floor;
         if r.pps < floor then begin
           Printf.eprintf
             "  FAIL: %s regressed more than %.0f%% (%.0f < %.0f pps)\n"
             anchor
             (100.0 *. !max_regress)
             r.pps floor;
           fail := true
         end);
    (* Determinism gate: the protocol aggregates must equal the
       committed single-domain anchor — for every domain count. *)
    let eq_int field actual =
      match scan_number ~engine:anchor ~field file with
      | None -> ()
      | Some committed ->
        if float_of_int actual <> committed then begin
          Printf.eprintf
            "  FAIL: %s (domains=%d): \"%s\" %d differs from committed \
             anchor %.0f\n"
            anchor r.domains field actual committed;
          fail := true
        end
    in
    let eq_float field actual =
      match scan_number ~engine:anchor ~field file with
      | None -> ()
      | Some committed ->
        (* The committed JSON rounds to 4 decimals. *)
        if Float.abs (actual -. committed) > 5e-5 then begin
          Printf.eprintf
            "  FAIL: %s (domains=%d): \"%s\" %.4f differs from committed \
             anchor %.4f\n"
            anchor r.domains field actual committed;
          fail := true
        end
    in
    eq_int "delivered" r.delivered;
    eq_int "markers" r.markers;
    eq_float "share_p50" r.share_p50;
    eq_float "share_p99" r.share_p99;
    if r.domains > 1 then
      Printf.printf
        "  check %-16s domains=%d aggregates match the single-domain \
         anchor\n"
        anchor r.domains;
    if !fail then exit 1
