(* smr-lint: allow R5 — shardkv demo internals consumed only by bin/ and test/; the service layer is an integration exercise, not a published API *)
(** Bridges from the repo's concrete stats types to the value-generic
    {!Obs.Metrics} builder. [Obs] knows nothing about [Smr_core.Stats],
    [Service_stats] or [Histogram]; this module is where the names, labels
    and unit conventions of the Prometheus exposition are decided, so every
    binary that exposes [--metrics] renders the same families. *)

module Metrics = Obs.Metrics
module Stats = Smr_core.Stats

(* Reclamation counters, labelled by scheme. Monotone counts are counters;
   instantaneous and peak block counts are gauges (a peak can reset with the
   Stats it came from). *)
let add_smr_stats m ?(labels = []) (s : Stats.t) =
  let c name help v =
    Metrics.counter m ~help ~labels name (float_of_int v)
  and g name help v = Metrics.gauge m ~help ~labels name (float_of_int v) in
  c "smr_blocks_allocated_total" "Blocks ever allocated" (Stats.allocated s);
  c "smr_blocks_freed_total" "Blocks reclaimed" (Stats.freed s);
  c "smr_blocks_retired_total" "Blocks retired (became garbage)"
    (Stats.retired_total s);
  c "smr_heavy_fences_total" "Heavy fences issued by reclaimers"
    (Stats.heavy_fences s);
  c "smr_protection_failures_total"
    "Operation attempts restarted after a failed protection"
    (Stats.protection_failures s);
  g "smr_blocks_live" "Blocks allocated and not yet freed" (Stats.live s);
  g "smr_blocks_unreclaimed" "Retired blocks awaiting reclamation"
    (Stats.unreclaimed s);
  g "smr_blocks_unreclaimed_peak" "Peak of smr_blocks_unreclaimed"
    (Stats.peak_unreclaimed s);
  g "smr_blocks_live_peak" "Peak of smr_blocks_live" (Stats.peak_live s)

(* A latency histogram as a Prometheus summary in seconds (the conventional
   unit), quantiles from the repo's bounded-error histogram. *)
let add_latency m ?(labels = []) name (s : Histogram.summary) =
  let sec ns = float_of_int ns /. 1e9 in
  Metrics.summary m ~labels name
    ~help:"Request latency (seconds)"
    ~quantiles:
      [
        (0.5, sec s.Histogram.p50);
        (0.9, sec s.Histogram.p90);
        (0.99, sec s.Histogram.p99);
        (0.999, sec s.Histogram.p999);
        (1.0, sec s.Histogram.max);
      ]
    ~count:s.Histogram.count
    ~sum:(s.Histogram.mean *. float_of_int s.Histogram.count /. 1e9)

(* Background-collector introspection (PR 7's pipeline), labelled by scheme:
   the live series ROADMAP item 1 needs to decide when async_reclaim can
   default on — ring pressure, pending backlog, how long garbage survives. *)
let add_collector_stats m ?(labels = []) (st : Smr.Collector.stats) =
  let c name help v = Metrics.counter m ~help ~labels name (float_of_int v)
  and g name help v = Metrics.gauge m ~help ~labels name (float_of_int v) in
  g "smr_collector_ring_occupancy" "Bags queued in the handoff ring"
    st.Smr.Collector.ring_occupancy;
  g "smr_collector_ring_capacity" "Handoff ring capacity"
    st.Smr.Collector.ring_capacity;
  g "smr_collector_pending_blocks"
    "Headers in collector-private pending after the last drain cycle"
    st.Smr.Collector.pending;
  g "smr_collector_pass_age"
    "Scan passes the currently-pending garbage has survived"
    st.Smr.Collector.pass_age;
  let ctrs = st.Smr.Collector.ctrs in
  c "smr_collector_handoffs_total" "Bags handed to the collector"
    ctrs.Smr.Collector.handoffs;
  c "smr_collector_fallbacks_total"
    "Inline reclaims forced by a full or stopped collector"
    ctrs.Smr.Collector.fallbacks;
  c "smr_collector_drains_total" "Drain cycles run" ctrs.Smr.Collector.drains;
  c "smr_collector_drained_bags_total" "Bags consumed by drain cycles"
    ctrs.Smr.Collector.drained_bags;
  c "smr_collector_steals_total"
    "Queued bags absorbed into mutators' inline scans"
    ctrs.Smr.Collector.steals;
  let hist name help (h : Smr.Collector.histogram) =
    Metrics.histogram m ~labels ~help name ~buckets:h.Smr.Collector.buckets
      ~count:h.Smr.Collector.count ~sum:h.Smr.Collector.sum
  in
  hist "smr_collector_drain_duration_seconds" "Per-cycle drain wall time"
    st.Smr.Collector.drain_duration;
  hist "smr_collector_garbage_age_passes"
    "Scan passes a block survived before being freed (cohort-approximate)"
    st.Smr.Collector.garbage_age

(* Everything a shardkv snapshot knows, labelled by scheme and shard count. *)
let add_service_snapshot m (t : Service_stats.t) =
  let labels =
    [ ("scheme", t.Service_stats.scheme);
      ("shards", string_of_int t.Service_stats.shards) ]
  in
  Metrics.counter m ~labels ~help:"Requests served"
    "shardkv_requests_total"
    (float_of_int t.Service_stats.total_ops);
  Metrics.gauge m ~labels ~help:"Observed request throughput"
    "shardkv_throughput_qps" t.Service_stats.qps;
  Metrics.gauge m ~labels ~help:"Worker sessions that ever attached"
    "shardkv_sessions" (float_of_int t.Service_stats.sessions);
  List.iter
    (fun (op, s) ->
      add_latency m
        ~labels:(labels @ [ ("op", Service_stats.op_name op) ])
        "shardkv_request_latency_seconds" s)
    t.Service_stats.per_op;
  Array.iteri
    (fun i n ->
      Metrics.gauge m
        ~labels:(labels @ [ ("shard", string_of_int i) ])
        ~help:"Keys resident per shard (valid at quiescence)"
        "shardkv_shard_keys" (float_of_int n))
    t.Service_stats.occupancy;
  let g name help v = Metrics.gauge m ~labels ~help name (float_of_int v) in
  g "shardkv_blocks_live" "Blocks live under this cell"
    t.Service_stats.live;
  g "shardkv_blocks_unreclaimed" "Retired blocks awaiting reclamation"
    t.Service_stats.unreclaimed;
  g "shardkv_blocks_unreclaimed_peak" "Peak unreclaimed during the cell"
    t.Service_stats.peak_unreclaimed;
  g "shardkv_blocks_live_peak" "Peak live during the cell"
    t.Service_stats.peak_live;
  g "shardkv_heavy_fences" "Heavy fences issued during the cell"
    t.Service_stats.heavy_fences;
  g "shardkv_protection_failures" "Failed protect validations during the cell"
    t.Service_stats.protection_failures

(* Tracer self-accounting, so a scrape shows whether the trace it sits next
   to is complete. *)
let add_trace_snapshot m (s : Obs.Trace.snapshot) =
  Metrics.counter m ~help:"Trace events captured" "obs_trace_events_total"
    (float_of_int (Array.length s.Obs.Trace.events));
  Metrics.counter m ~help:"Trace events lost to ring wraparound"
    "obs_trace_events_dropped_total"
    (float_of_int s.Obs.Trace.dropped)
