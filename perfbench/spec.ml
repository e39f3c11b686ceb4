(* The benchmark's contract in one place: workloads and why each was
   chosen, end-to-end metrics with the bound by which each may worsen,
   per-layer metrics with the end-to-end metric each should move.
   [main.exe --spec] prints BENCHMARK.json from these tables; the self-test
   checks the committed file against it. *)

type kind = Closed of Closed.spec | Net

(* name, what runs, why it was chosen *)
let workloads =
  [
    ( "list-churn",
      Closed { structure = `List; keys = 1024; get_pct = 0; insert_pct = 50; workers = 2; async = false },
      "HHSList + HP++, 2 workers, 50% insert / 50% remove over 1024 keys: every op allocates or \
       unlinks, so try_unlink, deferred invalidation, heavy fences and the hazard scan do the work" );
    ( "map-read",
      Closed { structure = `Map; keys = 16_384; get_pct = 90; insert_pct = 5; workers = 2; async = false },
      "HashMap of HHS buckets + HP++, 2 workers, 90% get over 16384 keys: short reads where \
       protect/validate and fixed per-op costs dominate and reclaim is rare" );
    ( "netkv-steady",
      Net,
      "in-process netkv server, 1 reactor, 4 shards, one unix-socket client keeping 8 requests \
       in flight, all on one CPU, 80% GET over 16384 keys: codec, reactor, session and shardkv \
       dominate" );
    ( "churn-async",
      Closed { structure = `List; keys = 1024; get_pct = 0; insert_pct = 50; workers = 1; async = true },
      "list-churn with async_reclaim on (1 worker plus the collector domain): the only workload \
       where lib/smr/collector does the reclaiming, paired with list-churn, which bypasses it" );
  ]

(* name, unit, better, bound. Every bound is 0.25, the widest allowed:
   the host is a shared 2-vCPU VM whose speed drifts by 10-30% over
   minutes, and the timed metrics follow it. The garbage counts do not
   follow it, but churn-async's single worker retires few blocks per
   round, so its garbage_avg_blocks (about 20) spread 0.083 over five
   runs. NOTES.md gives every spread. The tail is p90, not p99: netkv's
   p99 spread 43% over ten runs, following host preemptions rather than
   the program. p99 is still reported, in the record. *)
let end_to_end =
  [
    ("throughput_ops_s", "ops/s", "higher", 0.25);
    ("latency_p50_us", "us", "lower", 0.25);
    ("latency_p90_us", "us", "lower", 0.25);
    ("garbage_peak_blocks", "blocks", "lower", 0.25);
    ("garbage_avg_blocks", "blocks", "lower", 0.25);
    ("setup_s", "s", "lower", 0.25);
  ]

let ds_moves = "throughput_ops_s, latency_p50_us on map-read and list-churn"
let coll_moves = "latency_p90_us, garbage_* on churn-async"
let net_moves = "latency_p90_us on netkv-steady"
let svc_moves = "latency_p50_us on netkv-steady"
let pct name unit better moves = [ (name ^ ".p50", unit, better, moves); (name ^ ".p99", unit, better, moves) ]

(* name, unit, better, the end-to-end metric (and workload) it should move *)
let per_layer =
  List.concat_map (fun k -> pct ("smr_ds." ^ k ^ "_ns") "ns" "lower" ds_moves) [ "get"; "insert"; "remove" ]
  @ [
      ("smr_ds.insert.success_ratio", "ratio", "higher", ds_moves);
      ("smr_ds.remove.success_ratio", "ratio", "higher", ds_moves);
      ("smr_ds.self_ns_per_op", "ns", "lower", ds_moves);
      ("smr_ds.unlink_cas_ns.mean", "ns", "lower", ds_moves);
      ("smr_ds.invalidate_ns.mean", "ns", "lower", ds_moves);
      ("smr.protect.per_op", "calls/op", "lower", "latency_p50_us on map-read");
      ("smr.protect.fail_ratio", "ratio", "lower", "latency_p50_us on map-read");
      ("smr.crit_refresh.per_op", "calls/op", "lower", "throughput_ops_s on list-churn");
      ("smr.try_unlink.per_op", "calls/op", "lower", "throughput_ops_s on list-churn");
      ("smr.try_unlink.success_ratio", "ratio", "higher", "throughput_ops_s on list-churn");
      ("smr.try_unlink.self_ns.mean", "ns", "lower", "latency_p90_us on list-churn");
      ("smr.try_unlink.self_ns.p99", "ns", "lower", "latency_p90_us on list-churn");
      ("smr.retire_ns.p99", "ns", "lower", "latency_p90_us on list-churn");
      ("smr.reclaim.passes_per_kop", "passes/kop", "lower", "garbage_* on list-churn");
      ("smr.reclaim.freed_per_pass", "blocks", "higher", "garbage_* on list-churn");
      ("smr.alloc_per_op", "blocks/op", "lower", "garbage_* on list-churn");
      ("smr.self_ns_per_op", "ns", "lower", "throughput_ops_s on list-churn and map-read");
      ("smr.register_ns", "ns", "lower", "setup_s");
      ("smr.unregister_ns", "ns", "lower", "setup_s");
      ("smr.collector.handoff_success_ratio", "ratio", "higher", coll_moves);
      ("smr.collector.drains_per_kop", "drains/kop", "lower", coll_moves);
      ("smr.collector.steals_per_kop", "steals/kop", "lower", coll_moves);
      ("smr.collector.fallbacks_per_kop", "fallbacks/kop", "lower", coll_moves);
      ("smr.collector.drain_s.p99", "s", "lower", coll_moves);
      ("smr.collector.pass_age.max", "passes", "lower", coll_moves);
      ("smr.collector.ring_occupancy.mean", "bags", "lower", coll_moves);
    ]
  @ List.concat_map (fun k -> pct ("service." ^ k ^ "_ns") "ns" "lower" svc_moves) [ "get"; "put"; "delete" ]
  @ [ ("net.client_lag_us.mean", "us", "lower", net_moves) ]
  @ List.concat_map (fun k -> pct ("net." ^ k ^ "_us") "us" "lower" net_moves) [ "rpc"; "queue"; "serve"; "write" ]
  @ [
      ("net.queue_depth.mean", "requests", "lower", net_moves);
      ("net.retry_ratio", "ratio", "lower", net_moves);
      ("trace.overhead_ratio", "ratio", "higher", "none: the tracer's own cost, traced over untraced throughput_ops_s");
    ]

let unit_of name =
  match List.find_opt (fun (n, _, _, _) -> n = name) (end_to_end @ List.map (fun (n, u, b, _) -> (n, u, b, 0.0)) per_layer) with
  | Some (_, u, _, _) -> u
  | None -> invalid_arg ("Spec.unit_of: unnamed metric " ^ name)

let moves name =
  match List.find_opt (fun (n, _, _, _) -> n = name) per_layer with
  | Some (_, _, _, mv) -> mv
  | None -> "-"

let run_seconds = 24

let to_json () =
  let module J = Service.Json in
  J.Obj
    [
      ("command", J.List [ J.String "python3"; J.String "perfbench/run.py" ]);
      ("paths", J.List [ J.String "perfbench" ]);
      ("run_seconds", J.Int run_seconds);
      ( "workloads",
        J.List (List.map (fun (n, _, why) -> J.Obj [ ("name", J.String n); ("why", J.String why) ]) workloads) );
      ( "end_to_end",
        J.List
          (List.map
             (fun (n, u, b, bound) ->
               J.Obj [ ("name", J.String n); ("unit", J.String u); ("better", J.String b); ("bound", J.Float bound) ])
             end_to_end) );
      ( "per_layer",
        J.List
          (List.map
             (fun (n, u, b, _) -> J.Obj [ ("name", J.String n); ("unit", J.String u); ("better", J.String b) ])
             per_layer) );
    ]
