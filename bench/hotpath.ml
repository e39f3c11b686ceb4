(* SMR hot-path microbenchmarks: the retire→reclaim cycle every scheme pays,
   away from any data-structure traversal, inline and through the
   background collector, plus what the tracer costs that cycle (disabled
   branch, enabled ring write, fully traced retire). The inline/async pairs
   carry per-op latency percentiles for CI's collector gate.

   Wired as [bench/main.exe exp hotpath]; rows flow into [--json] via
   {!Bench_harness.Results}. The run fails loudly (nonzero exit) if any
   scheme trips the UAF detector or records a protection failure, which is
   what the CI hotpath-smoke job asserts. *)

module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Domain_pool = Smr_core.Domain_pool
module Results = Bench_harness.Results
module Bench_types = Bench_harness.Bench_types
module Histogram = Service.Histogram
module Json = Service.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let result_of ~ops ~wall ?(stats : Stats.t option) () : Bench_types.result =
  {
    ops;
    wall;
    throughput_mops = float_of_int ops /. wall /. 1e6;
    offered_rps = 0.0;
    achieved_rps = (if wall > 0.0 then float_of_int ops /. wall else 0.0);
    peak_unreclaimed =
      (match stats with Some s -> Stats.peak_unreclaimed s | None -> 0);
    avg_unreclaimed = 0.;
    peak_live = (match stats with Some s -> Stats.peak_live s | None -> 0);
    heavy_fences = (match stats with Some s -> Stats.heavy_fences s | None -> 0);
    protection_failures =
      (match stats with Some s -> Stats.protection_failures s | None -> 0);
    allocated = (match stats with Some s -> Stats.allocated s | None -> 0);
    freed = (match stats with Some s -> Stats.freed s | None -> 0);
    retired_total =
      (match stats with Some s -> Stats.retired_total s | None -> 0);
  }

let report ?extra ?(workload = "hotpath") ~ds ~scheme ~threads ~key_range r =
  Results.add ?extra ~ds ~scheme ~threads ~key_range ~workload r;
  Printf.printf "  %-14s %-22s threads=%d n=%-6d  %8.3f Mops/s\n%!" ds scheme
    threads key_range r.Bench_types.throughput_mops

(* Per-op latency columns appended to the row's JSON (satellite of the
   async-reclamation PR: the throughput tables hide the tail that the
   background collector exists to shave). *)
let lat_extra ~mode (s : Histogram.summary) =
  [
    ("mode", Json.String mode);
    ("lat_p50_ns", Json.Int s.Histogram.p50);
    ("lat_p99_ns", Json.Int s.Histogram.p99);
    ("lat_p999_ns", Json.Int s.Histogram.p999);
    ("lat_mean_ns", Json.Float s.Histogram.mean);
    ("lat_max_ns", Json.Int s.Histogram.max);
  ]

let print_lat scheme (s : Histogram.summary) =
  Printf.printf
    "    %-22s latency p50=%dns p99=%dns p999=%dns max=%dns\n%!" scheme
    s.Histogram.p50 s.Histogram.p99 s.Histogram.p999 s.Histogram.max

(* --- 1. retire→reclaim throughput per scheme ----------------------------- *)

module Retire_loop (S : Smr.Smr_intf.S) = struct
  (* Allocate-and-retire as fast as possible: every iteration pays the
     alloc, stats and retire costs, and every reclaim_threshold-th pays a
     full reclaim pass (inline mode) or a bag handoff (async mode). No data
     structure in the way. Each op is clocked individually into a
     per-domain histogram — the clock overhead is uniform across schemes
     and modes, and the tail is the whole point: inline reclaim spikes at
     p99/p999 are what the background collector exists to shave. *)
  let run ?(config = Smr.Smr_intf.default_config) ~threads ~duration () =
    let t = S.create ~config () in
    let stats = S.stats t in
    let outs =
      Domain_pool.run_timed ~n:threads ~duration (fun _ ~stop ->
          let h = S.register t in
          let hist = Histogram.create () in
          let n = ref 0 in
          while not (stop ()) do
            for _ = 1 to 64 do
              let t0 = now_ns () in
              let hdr = Mem.make stats in
              S.crit_enter h;
              S.retire h hdr;
              S.crit_exit h;
              Histogram.record hist (now_ns () - t0)
            done;
            n := !n + 64
          done;
          S.flush h;
          S.unregister h;
          (!n, hist))
    in
    S.shutdown t;
    let ops = Array.fold_left (fun acc (n, _) -> acc + n) 0 outs in
    let hist =
      Histogram.merge (Array.to_list (Array.map snd outs))
    in
    (ops, stats, hist)
end

module Hp_loop = Retire_loop (Hp)
module Hpp_loop = Retire_loop (Hp_plus)

(* Paired rows per scheme: the inline baseline ([workload = "hotpath"]) and
   the asynchronous pipeline ([workload = "hotpath-async"]) over the
   identical loop, so the JSON carries the p99 comparison the
   collector-smoke CI job gates on. The async rows use a short (2-bag)
   ring: handed-off bags are capped at twice the handoff grain (32 at the
   default threshold) and a starved ring is stolen back into the mutator's
   own baseline scans, so worst-case garbage (own bag + stolen ring, 128 +
   2*32) stays within the epoch schemes' inline envelope while the common
   case sheds the snapshot+scan from the mutator path entirely. *)
let async_config =
  { Smr.Smr_intf.default_config with async_reclaim = true; handoff_capacity = 2 }

(* Every scheme of the table that reclaims: NR's loop would only measure
   allocation. *)
let retire_reclaim_bench ~threads ~duration =
  let schemes =
    List.map
      (fun (name, (module S : Smr.Smr_intf.S)) ->
        let module L = Retire_loop (S) in
        (name, fun config -> L.run ~config ~threads ~duration ()))
      (Schemes.reclaiming ())
  in
  let one ~mode ~workload config (name, f) =
    let t0 = Unix.gettimeofday () in
    let ops, stats, hist = f config in
    let wall = Unix.gettimeofday () -. t0 in
    let s = Histogram.summary hist in
    report
      ~extra:(lat_extra ~mode s)
      ~workload ~ds:"retire-reclaim" ~scheme:name ~threads ~key_range:0
      (result_of ~ops ~wall ~stats ());
    print_lat name s
  in
  List.iter
    (one ~mode:"inline" ~workload:"hotpath" Smr.Smr_intf.default_config)
    schemes;
  List.iter (one ~mode:"async" ~workload:"hotpath-async" async_config) schemes

(* --- 2. tracer cost: disabled branch, enabled ring write, traced retire -- *)

module Trace = Obs.Trace

let tracer_bench ~threads ~duration =
  let emit_loop _ ~stop =
    let n = ref 0 in
    while not (stop ()) do
      for _ = 1 to 64 do
        Trace.emit Trace.Retire 1 0 0
      done;
      n := !n + 64
    done;
    !n
  in
  let counts = Domain_pool.run_timed ~n:threads ~duration emit_loop in
  let ops = Array.fold_left ( + ) 0 counts in
  report ~ds:"tracer" ~scheme:"emit-disabled" ~threads ~key_range:0
    (result_of ~ops ~wall:duration ());
  Trace.enable ~capacity:4096 ();
  let counts = Domain_pool.run_timed ~n:threads ~duration emit_loop in
  Trace.disable ();
  Trace.reset ();
  let ops = Array.fold_left ( + ) 0 counts in
  report ~ds:"tracer" ~scheme:"emit-enabled" ~threads ~key_range:0
    (result_of ~ops ~wall:duration ())

(* The acceptance row for the <2% disabled-overhead budget is the plain
   retire-reclaim bench above (its hooks all take the disabled branch);
   these rows show what fully enabled tracing costs the same loop. *)
let traced_retire_bench ~threads ~duration =
  Trace.enable ~capacity:16384 ();
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      let ops, stats, _ = f () in
      let wall = Unix.gettimeofday () -. t0 in
      report ~ds:"retire-reclaim-traced" ~scheme:name ~threads ~key_range:0
        (result_of ~ops ~wall ~stats ()))
    [
      ("HP", fun () -> Hp_loop.run ~threads ~duration ());
      ("HP++", fun () -> Hpp_loop.run ~threads ~duration ());
    ];
  Trace.disable ();
  Trace.reset ()

(* --- Anomaly gate (CI hotpath-smoke fails on nonzero exit) --------------- *)

let check_anomalies schemes_stats =
  List.iter
    (fun (name, stats) ->
      let pf = Stats.protection_failures stats in
      if pf > 0 then
        failwith
          (Printf.sprintf
             "hotpath anomaly: %s recorded %d protection failures in a \
              contention-free bench"
             name pf))
    schemes_stats

let run ~threads_list ~duration =
  print_endline "hotpath: SMR hot-path microbenchmarks";
  Printf.printf "  uaf-detector=%b\n%!" (Mem.checking ());
  List.iter
    (fun threads ->
      retire_reclaim_bench ~threads ~duration;
      tracer_bench ~threads ~duration;
      traced_retire_bench ~threads ~duration)
    threads_list;
  (* A final guarded retire run with stats retained for the anomaly gate —
     once inline, once through the async pipeline. *)
  let _, hp_stats, _ = Hp_loop.run ~threads:2 ~duration:(duration /. 2.) () in
  let _, hpp_stats, _ = Hpp_loop.run ~threads:2 ~duration:(duration /. 2.) () in
  let _, hp_async_stats, _ =
    Hp_loop.run ~config:async_config ~threads:2 ~duration:(duration /. 2.) ()
  in
  check_anomalies
    [ ("HP", hp_stats); ("HP++", hpp_stats); ("HP/async", hp_async_stats) ];
  print_endline "hotpath: no UAF / protection-failure anomalies"
