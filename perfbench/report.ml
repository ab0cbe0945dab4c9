(* Metric names, units and output.

   [end_to_end] and [per_layer] are the metrics BENCHMARK.json lists:
   every run prints all of one list in its final JSON line. [extras]
   are end-to-end metrics that apply to some workloads only; they are
   printed by name with their unit on the text lines but are not gated
   (see README.md). *)

type better = Higher | Lower

type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

let end_to_end =
  [
    m "pps" "1/s" Higher;
    m "minor_words_per_pkt" "words" Lower;
    m "peak_heap_mb" "MB" Lower;
    m "setup_s" "s" Lower;
  ]

let extras =
  [
    m "raw_pps" "1/s" Higher;
    m "raw_setup_s" "s" Lower;
    m "pace_s" "s" Lower;
    m "fail_ratio" "ratio" Lower;
    m "ooo_ratio" "ratio" Lower;
    m "latency_p50_ms" "ms" Lower;
    m "latency_p999_ms" "ms" Lower;
    m "latency_samples" "count" Higher;
    m "resync_ms" "ms" Lower;
    m "share_err_p99" "ratio" Lower;
  ]

let per_layer =
  [
    m "sim.events_per_pkt" "events" Lower;
    m "sim.self_ns_per_event" "ns" Lower;
    m "sim.pending_max" "events" Lower;
    m "striper.push_ns" "ns" Lower;
    m "striper.push_words" "words" Lower;
    m "striper.markers_per_pkt" "ratio" Lower;
    m "link.send_ns" "ns" Lower;
    m "link.send_words" "words" Lower;
    m "link.util" "ratio" Higher;
    m "link.queue_pkts_max" "packets" Lower;
    m "link.wire_ms_p50" "ms" Lower;
    m "link.wire_ms_p999" "ms" Lower;
    m "link.lost_ratio" "ratio" Lower;
    m "guard.receive_ns" "ns" Lower;
    m "guard.dup_discards" "count" Lower;
    m "guard.reorder_restores" "count" Higher;
    m "guard.held_max" "packets" Lower;
    m "reseq.receive_ns" "ns" Lower;
    m "reseq.receive_words" "words" Lower;
    m "reseq.hold_ms_p50" "ms" Lower;
    m "reseq.hold_ms_p999" "ms" Lower;
    m "reseq.buffer_hw_bytes" "bytes" Lower;
    m "reseq.skips" "count" Lower;
    m "reseq.watchdog_skips" "count" Lower;
    m "reseq.reorder_depth_p99" "packets" Lower;
    m "health.tick_ns" "ns" Lower;
    m "health.quarantines" "count" Lower;
    m "health.detect_ms" "ms" Lower;
    m "obs.events_per_pkt" "events" Lower;
    m "obs.sink_ns" "ns" Lower;
    m "pool.push_ns" "ns" Lower;
    m "pool.acquire_ns" "ns" Lower;
    m "pool.release_ns" "ns" Lower;
    m "pool.push_words" "words" Lower;
    m "pool.recycles" "count" Higher;
    m "pool.peak_live" "bundles" Lower;
    m "pool.markers_per_pkt" "ratio" Lower;
    m "shard.record_s" "s" Lower;
    m "shard.replay_s" "s" Lower;
    m "shard.merge_s" "s" Lower;
    m "trace.pps" "1/s" Higher;
    m "trace.overhead" "ratio" Lower;
    m "trace.unattributed_share" "ratio" Lower;
  ]

let find metrics name = List.find (fun x -> x.name = name) metrics
let all = end_to_end @ extras @ per_layer
let unit_of name = (find all name).unit

(* Shortest decimal that reads back as the same float: every digit that
   was measured, and valid JSON. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let line name v = Printf.sprintf "  %-28s %s %s" name (number v) (unit_of name)

(* The last line of a run: [metrics] in the order given, each with its
   unit. A value that is not finite cannot be printed as JSON; the
   caller treats it as a failed check. *)
let json ~correct ~attempted ~failed values =
  let entry (name, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v)
      (unit_of name)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map entry values))
