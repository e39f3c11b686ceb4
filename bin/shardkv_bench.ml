(* Closed-loop load generator for the shardkv service layer: every worker
   domain issues the next request only after the previous one returns, the
   service records per-request latency into per-domain histograms, and each
   (shard count, scheme) cell reports throughput, p50/p90/p99/p999 latency,
   per-shard occupancy and the SMR garbage counters — as text tables and,
   with --json FILE, as machine-readable output.

     dune exec bin/shardkv_bench.exe -- --shards 1,4,8 --domains 4 --json out.json

   The use-after-free detector stays armed unless --no-uaf-check is given,
   and after every cell the whole store is swept for reachable-but-freed
   nodes; schemes that never withdraw protection (NR, EBR, RC) are
   additionally checked for spurious protection failures. *)

module Pool = Smr_core.Domain_pool
module Rng = Smr_core.Rng
module Workload = Bench_harness.Workload
module Report = Bench_harness.Report
module Json = Service.Json
module Key_dist = Service.Key_dist
module St = Service.Service_stats
module Trace = Obs.Trace

type params = {
  domains : int;
  duration : float;
  keys : int;
  workload : Workload.t;
  mg_pct : int; (* share of reads issued as multi_get batches *)
  batch : int;
  dist_name : string;
  theta : float;
  prefill : float;
  async : bool; (* hand retire bags to a background collector domain *)
}

(* With --metrics-listen the exposition listener samples whichever cell is
   currently running: each run_cell installs a closure over its own kv here
   and clears it before teardown. The swap is racy but memory-safe — at
   worst one scrape reads a just-quiesced cell. *)
let live_sample : (Obs.Metrics.t -> unit) ref = ref (fun _ -> ())

type cell = {
  c_scheme : string;
  c_shards : int;
  snap : St.t;
  wall : float;
  keys_checked : int;
  anomalies : int; (* protection failures on schemes that must have none *)
}

module Drive (S : Smr.Smr_intf.S) = struct
  module KV = Service.Shardkv.Make (S)

  let prefill kv ~keys ~ratio =
    let order = Array.init keys Fun.id in
    let rng = Rng.create ~seed:0xabcdef in
    for i = keys - 1 downto 1 do
      let j = Rng.below rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
    let count = int_of_float (float_of_int keys *. ratio) in
    KV.load kv (Array.init count (fun i -> (order.(i), order.(i))));
    KV.detach kv

  let run_cell p ~shards =
    let config =
      if p.async then
        { Smr.Smr_intf.default_config with async_reclaim = true }
      else Smr.Smr_intf.default_config
    in
    let kv = KV.create ~config ~shards () in
    prefill kv ~keys:p.keys ~ratio:p.prefill;
    let t0 = Unix.gettimeofday () in
    live_sample :=
      (fun m ->
        let elapsed = Unix.gettimeofday () -. t0 in
        let snap = KV.snapshot kv ~elapsed in
        Service.Telemetry.add_service_snapshot m snap;
        let labels = [ ("scheme", S.name) ] in
        Service.Telemetry.add_smr_stats m ~labels (S.stats (KV.scheme kv));
        match S.collector_stats (KV.scheme kv) with
        | Some st -> Service.Telemetry.add_collector_stats m ~labels st
        | None -> ());
    let _ =
      Pool.run_timed ~n:p.domains ~duration:p.duration (fun i ~stop ->
          let rng = Rng.create ~seed:(0x5eed + (i * 7919)) in
          let dist = Key_dist.of_name ~theta:p.theta p.dist_name p.keys in
          let batch_buf = Array.make (max 1 p.batch) 0 in
          while not (stop ()) do
            let key = Key_dist.next dist rng in
            match Workload.pick p.workload rng with
            | Workload.Insert -> ignore (KV.put kv key key)
            | Workload.Delete -> ignore (KV.delete kv key)
            | Workload.Get ->
                if p.mg_pct > 0 && Rng.below rng 100 < p.mg_pct then begin
                  batch_buf.(0) <- key;
                  for j = 1 to Array.length batch_buf - 1 do
                    batch_buf.(j) <- Key_dist.next dist rng
                  done;
                  ignore (KV.multi_get kv batch_buf)
                end
                else ignore (KV.get kv key)
          done;
          KV.detach kv)
    in
    let wall = Unix.gettimeofday () -. t0 in
    live_sample := (fun _ -> ());
    (* quiescent integrity sweep: raises on any reachable-but-freed node *)
    let keys_checked = KV.validate kv in
    let snap = KV.snapshot kv ~elapsed:wall in
    (* stop the collector (if any) so queued bags cannot outlive the cell *)
    KV.shutdown kv;
    let anomalies =
      if (not S.needs_protection) && snap.St.protection_failures > 0 then
        snap.St.protection_failures
      else 0
    in
    { c_scheme = S.name; c_shards = shards; snap; wall; keys_checked; anomalies }
end

let run_cell p ~scheme ~shards =
  let module S = (val Option.get (Schemes.find scheme)) in
  let module D = Drive (S) in
  D.run_cell p ~shards

let lat_summary cell op = List.assoc_opt op cell.snap.St.per_op

let cell_json p cell =
  let base =
    match St.to_json cell.snap with Json.Obj kvs -> kvs | _ -> assert false
  in
  Json.Obj
    (( "cell",
       Json.Obj
         [
           ("scheme", Json.String cell.c_scheme);
           ("shards", Json.Int cell.c_shards);
           ("domains", Json.Int p.domains);
           ("wall_s", Json.Float cell.wall);
           ("keys_checked", Json.Int cell.keys_checked);
           ("uaf_reports", Json.Int 0);
           ("protection_failure_anomalies", Json.Int cell.anomalies);
         ] )
    :: base)

let summary_table cells =
  let us ns = float_of_int ns /. 1e3 in
  let rows =
    List.map
      (fun c ->
        let get = lat_summary c St.Get in
        let put = lat_summary c St.Put in
        ( Printf.sprintf "%s/%dsh" c.c_scheme c.c_shards,
          [
            Some (c.snap.St.qps /. 1e3);
            Option.map (fun (s : Service.Histogram.summary) -> us s.p50) get;
            Option.map (fun (s : Service.Histogram.summary) -> us s.p99) get;
            Option.map (fun (s : Service.Histogram.summary) -> us s.p999) get;
            Option.map (fun (s : Service.Histogram.summary) -> us s.p99) put;
            Some (float_of_int c.snap.St.peak_unreclaimed);
          ] ))
      cells
  in
  Report.table ~title:"shardkv closed-loop summary" ~row_label:"cell"
    ~columns:
      [ "kqps"; "get p50us"; "get p99us"; "get p999us"; "put p99us"; "peak-garb" ]
    ~rows
    ~fmt:(Printf.sprintf "%.2f")

open Cmdliner

let shards_arg =
  let doc = "Comma-separated shard counts to sweep." in
  Arg.(value & opt (list int) [ 1; 4; 8 ] & info [ "shards" ] ~doc)

let domains_arg =
  let doc = "Worker domains issuing requests." in
  Arg.(value & opt int 4 & info [ "domains" ] ~doc)

let duration_arg =
  let doc = "Seconds of load per cell." in
  Arg.(value & opt float 0.5 & info [ "duration" ] ~doc)

let keys_arg =
  let doc = "Key-space size." in
  Arg.(value & opt int 16384 & info [ "keys" ] ~doc)

let read_pct_arg =
  let doc = "Percentage of requests that are reads (rest split put/delete)." in
  Arg.(value & opt int 90 & info [ "read-pct" ] ~doc)

let mg_pct_arg =
  let doc = "Percentage of reads issued as multi_get batches." in
  Arg.(value & opt int 10 & info [ "mg-pct" ] ~doc)

let batch_arg =
  let doc = "Keys per multi_get batch." in
  Arg.(value & opt int 8 & info [ "batch" ] ~doc)

let dist_arg =
  let doc = "Key distribution: uniform or zipfian." in
  Arg.(value & opt Bench_cli.dist "uniform" & info [ "dist" ] ~doc)

let theta_arg =
  let doc = "Zipfian skew parameter (0 < theta < 1)." in
  Arg.(value & opt Bench_cli.theta 0.99 & info [ "theta" ] ~doc)

let prefill_arg =
  let doc = "Fraction of the key space inserted before load." in
  Arg.(value & opt float 0.5 & info [ "prefill" ] ~doc)

let schemes_arg =
  let doc =
    Printf.sprintf "Comma-separated reclamation schemes (%s)."
      (String.concat "," Schemes.names)
  in
  Arg.(value & opt Bench_cli.schemes [ "HP++"; "EBR" ] & info [ "schemes" ] ~doc)

let json_arg =
  let doc =
    "Write machine-readable results to $(docv) (opened before the run)."
  in
  Arg.(value & opt (some Bench_cli.json_out) None & info [ "json" ] ~doc)

let no_uaf_arg =
  let doc = "Disable the use-after-free detector during load." in
  Arg.(value & flag & info [ "no-uaf-check" ] ~doc)

let async_arg =
  let doc =
    "Hand full retire bags to a background collector domain instead of \
     scanning inline (sets $(b,async_reclaim) in the scheme config)."
  in
  Arg.(value & flag & info [ "async-reclaim" ] ~doc)

let trace_arg =
  let doc =
    "Record SMR events and op spans, write a Chrome trace-event JSON \
     (Perfetto-loadable) to $(docv), and replay-check the trace."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_raw_arg =
  let doc =
    "Also write the raw trace ($(b,seq ts dom kind uid a b) lines, the \
     format trace_check.exe reads) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace-raw" ] ~docv:"FILE" ~doc)

let trace_depth_arg =
  let doc = "Trace ring capacity per domain, in events." in
  Arg.(value & opt int 65536 & info [ "trace-depth" ] ~doc)

let metrics_arg =
  let doc =
    "Write a Prometheus-style text exposition of every cell's counters to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let span_name =
  let names = Array.of_list (List.map St.op_name St.all_ops) in
  fun op ->
    if op >= 0 && op < Array.length names then names.(op)
    else "op" ^ string_of_int op

let main shards domains duration keys read_pct mg_pct batch dist theta prefill
    schemes json no_uaf async trace trace_raw trace_depth metrics metrics_live =
  if no_uaf then Smr_core.Mem.set_checking false;
  let exposition = Obs_cli.start metrics_live ~sample:(fun m -> !live_sample m) in
  Option.iter
    (fun e ->
      Printf.printf "metrics on http://127.0.0.1:%d/metrics\n%!"
        (Obs.Exposition.port e))
    exposition;
  let tracing = trace <> None || trace_raw <> None in
  if tracing then begin
    (* one clock for instants and span starts, monotonic so the Perfetto
       timeline cannot jump backwards *)
    Trace.set_clock (fun () -> Int64.to_int (Monotonic_clock.now ()));
    Trace.enable ~capacity:trace_depth ()
  end;
  let write_pct = max 0 (100 - read_pct) in
  let insert_pct = (write_pct + 1) / 2 in
  let workload =
    {
      Workload.name = Printf.sprintf "read%d" read_pct;
      insert_pct;
      delete_pct = write_pct - insert_pct;
    }
  in
  let p =
    {
      domains;
      duration;
      keys;
      workload;
      mg_pct;
      batch;
      dist_name = dist;
      theta;
      prefill;
      async;
    }
  in
  Printf.printf
    "shardkv closed-loop bench: %d domain(s), %.2fs/cell, %d keys (%s), \
     %d%% reads (%d%% of them multi_get x%d), uaf-check=%b, reclaim=%s\n%!"
    domains duration keys dist read_pct mg_pct batch
    (Smr_core.Mem.checking ())
    (if async then "async" else "inline");
  let cells =
    List.concat_map
      (fun scheme ->
        List.map
          (fun shards ->
            let cell = run_cell p ~scheme ~shards in
            Format.printf "%a@." St.pp cell.snap;
            if cell.anomalies > 0 then
              Printf.printf
                "!! anomaly: %d protection failure(s) under %s, which never \
                 withdraws protection\n%!"
                cell.anomalies scheme;
            cell)
          shards)
      schemes
  in
  summary_table cells;
  Option.iter
    (fun out ->
      Bench_cli.write_json out
        (Json.Obj
           [
             ("bench", Json.String "shardkv");
             ("domains", Json.Int domains);
             ("duration_s", Json.Float duration);
             ("keys", Json.Int keys);
             ("read_pct", Json.Int read_pct);
             ("multi_get_pct", Json.Int mg_pct);
             ("batch", Json.Int batch);
             ("dist", Json.String dist);
             ("theta", Json.Float theta);
             ("prefill", Json.Float prefill);
             ("async_reclaim", Json.Bool async);
             ("cells", Json.List (List.map (cell_json p) cells));
           ]);
      Printf.printf "wrote %d cells to %s\n%!" (List.length cells)
        out.Bench_cli.path)
    json;
  let trace_violations = ref 0 in
  if tracing then begin
    Trace.disable ();
    let snap = Trace.snapshot () in
    Option.iter
      (fun path ->
        Obs.Chrome.write ~span_name path snap;
        Printf.printf "wrote %d trace events to %s (dropped %d)\n%!"
          (Array.length snap.Trace.events)
          path snap.Trace.dropped)
      trace;
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Trace.write_raw oc snap);
        Printf.printf "wrote raw trace to %s\n%!" path)
      trace_raw;
    (match Obs.Check.run_snapshot snap with
    | Ok summary ->
        Format.printf "trace check: clean — %a@." Obs.Check.pp_summary summary
    | Error vs ->
        trace_violations := List.length vs;
        Printf.printf "trace check: %d violation(s)\n" !trace_violations;
        List.iteri
          (fun i v ->
            if i < 20 then Format.printf "  %a@." Obs.Check.pp_violation v)
          vs)
  end;
  Option.iter
    (fun path ->
      let m = Obs.Metrics.create () in
      List.iter (fun c -> Service.Telemetry.add_service_snapshot m c.snap) cells;
      if tracing then Service.Telemetry.add_trace_snapshot m (Trace.snapshot ());
      Obs.Metrics.write path m;
      Printf.printf "wrote metrics exposition to %s\n%!" path)
    metrics;
  Option.iter Obs.Exposition.stop exposition;
  let total_anomalies = List.fold_left (fun a c -> a + c.anomalies) 0 cells in
  if total_anomalies > 0 || !trace_violations > 0 then exit 1

let cmd =
  let doc = "Closed-loop load generator for the shardkv service layer" in
  Cmd.v
    (Cmd.info "shardkv-bench" ~doc)
    Term.(
      const main $ shards_arg $ domains_arg $ duration_arg $ keys_arg
      $ read_pct_arg $ mg_pct_arg $ batch_arg $ dist_arg $ theta_arg
      $ prefill_arg $ schemes_arg $ json_arg $ no_uaf_arg $ async_arg
      $ trace_arg $ trace_raw_arg $ trace_depth_arg $ metrics_arg
      $ Obs_cli.term)

let () = exit (Cmd.eval cmd)
