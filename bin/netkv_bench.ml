(* Open-loop load generator for the networked shardkv server.

   Unlike shardkv_bench (closed-loop: a stalled server silently stops being
   measured), this bench schedules arrivals by wall clock from a seeded
   plan and charges queueing delay to latency, so overload shows up in the
   numbers instead of disappearing from them. Each cell reports three p99s:
   raw (completion - send, the coordinated-omitting number), backfill
   (HdrHistogram-style correction of the raw sample), and corrected
   (completion - scheduled arrival).

     dune exec bin/netkv_bench.exe -- --schemes HP,EBR --rates 20000,80000

   By default each cell starts its own in-process server on a unix socket
   under the temp dir; --connect ADDR drives an external server instead
   (one cell per rate, scheme column "remote"). --fault-seed arms a seeded
   client-side fault (Net_read/Net_write, kill or stall) after prefill;
   a stalled connection is released by a watchdog after --fault-release
   seconds. With --json FILE every cell lands as a harness Results row
   with offered_rps/achieved_rps filled in. *)

module Stats = Smr_core.Stats
module Report = Bench_harness.Report
module Bench_types = Bench_harness.Bench_types
module Json = Service.Json
module Histogram = Service.Histogram
module St = Service.Service_stats

type params = {
  conns : int;
  duration : float;
  seed : int;
  keys : int;
  read_pct : int;
  dist : string;
  theta : float;
  drain : float;
  reactors : int;
  shards : int;
  queue_bound : int;
  prefill : int;
  async : bool; (* in-process servers run a background collector domain *)
  fault_seed : int option;
  fault_release : float;
  trace_raw : string option; (* client-side Req_send/Req_done events *)
  trace_depth : int;
}

type cell = {
  b_scheme : string;
  rate : float;
  res : Net.Openloop.result;
  result : Bench_types.result; (* harness row: offered/achieved + garbage *)
  residue : int; (* unreclaimed after stop + final reap *)
  fault : Fault.plan option;
  srv_served : int; (* in-process servers only; 0 for --connect *)
  srv_retries : int;
}

let cfg_of p ~addr ~rate =
  {
    Net.Openloop.addr;
    conns = p.conns;
    rate;
    duration = p.duration;
    seed = p.seed;
    keys = p.keys;
    read_pct = p.read_pct;
    dist = p.dist;
    theta = p.theta;
    drain = p.drain;
  }

let to_result ~stats (res : Net.Openloop.result) =
  let g f = match stats with Some s -> f s | None -> 0 in
  {
    Bench_types.ops = res.Net.Openloop.total_completed;
    wall = res.Net.Openloop.elapsed;
    throughput_mops = res.Net.Openloop.achieved_rps /. 1e6;
    offered_rps = res.Net.Openloop.offered_rps;
    achieved_rps = res.Net.Openloop.achieved_rps;
    peak_unreclaimed = g Stats.peak_unreclaimed;
    avg_unreclaimed = 0.0;
    peak_live = g Stats.peak_live;
    heavy_fences = g Stats.heavy_fences;
    protection_failures = g Stats.protection_failures;
    allocated = g Stats.allocated;
    freed = g Stats.freed;
    retired_total = g Stats.retired_total;
  }

(* Arm the seeded client-side fault and a watchdog that releases a stalled
   victim after [release] seconds (idempotent if nothing stalled), so a
   Stall demonstrates a frozen client without wedging the run. *)
let with_fault p f =
  match p.fault_seed with
  | None -> (None, f ())
  | Some seed ->
      let plan =
        Fault.arm_seeded ~seed ~points:[ Fault.Net_read; Fault.Net_write ] ()
      in
      let watchdog =
        Domain.spawn (fun () ->
            Unix.sleepf p.fault_release;
            Fault.release ())
      in
      let r = f () in
      Domain.join watchdog;
      Fault.reset ();
      (Some plan, r)

module Drive (S : Smr.Smr_intf.S) = struct
  module Srv = Net.Server.Make (S)

  let run_cell p ~rate =
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "netkv-%d-%s-%.0f.sock" (Unix.getpid ()) S.name rate)
    in
    let addr = Net.Addr.Unix_sock path in
    let config =
      if p.async then
        { Smr.Smr_intf.default_config with async_reclaim = true }
      else Smr.Smr_intf.default_config
    in
    let srv =
      Srv.start ~reactors:p.reactors ~queue_bound:p.queue_bound ~config
        ~shards:p.shards [ addr ]
    in
    Fun.protect
      ~finally:(fun () -> try Srv.stop srv with _ -> ())
      (fun () ->
        let cfg = cfg_of p ~addr ~rate in
        if p.prefill > 0 then Net.Openloop.prefill cfg ~count:p.prefill;
        let fault, res = with_fault p (fun () -> Net.Openloop.run cfg) in
        Srv.stop srv;
        let stats = S.stats (Srv.Kv.scheme (Srv.kv srv)) in
        let c = Srv.counters srv in
        {
          b_scheme = (if p.async then S.name ^ "+async" else S.name);
          rate;
          res;
          result = to_result ~stats:(Some stats) res;
          residue = Srv.residue srv;
          fault;
          srv_served = Atomic.get c.Net.Reactor.served;
          srv_retries = Atomic.get c.Net.Reactor.retries;
        })
end

let run_cell p ~scheme ~rate =
  let module S = (val Option.get (Schemes.find scheme)) in
  let module D = Drive (S) in
  D.run_cell p ~rate

let run_remote p ~addr ~rate =
  let cfg = cfg_of p ~addr ~rate in
  if p.prefill > 0 then Net.Openloop.prefill cfg ~count:p.prefill;
  let fault, res = with_fault p (fun () -> Net.Openloop.run cfg) in
  {
    b_scheme = "remote";
    rate;
    res;
    result = to_result ~stats:None res;
    residue = 0;
    fault;
    srv_served = 0;
    srv_retries = 0;
  }

let openloop_json (res : Net.Openloop.result) =
  let summary h = St.summary_json (Histogram.summary h) in
  Json.Obj
    [
      ("sent", Json.Int res.Net.Openloop.total_sent);
      ("completed", Json.Int res.Net.Openloop.total_completed);
      ("retried", Json.Int res.Net.Openloop.total_retried);
      ("abandoned", Json.Int res.Net.Openloop.total_abandoned);
      ("kills", Json.Int res.Net.Openloop.kills);
      ("latency_uncorrected", summary res.Net.Openloop.r_uncorrected);
      ("latency_backfill", summary res.Net.Openloop.r_backfill);
      ("latency_corrected", summary res.Net.Openloop.r_corrected);
    ]

let print_cell c =
  let res = c.res in
  let p99 h = float_of_int (Histogram.percentile h 99.0) /. 1e3 in
  Printf.printf
    "%-6s offered %8.0f rps: achieved %8.0f rps, sent %d done %d retry %d \
     abandoned %d kills %d, p99 us raw/backfill/corrected = %.1f/%.1f/%.1f, \
     residue %d\n%!"
    c.b_scheme res.Net.Openloop.offered_rps res.Net.Openloop.achieved_rps
    res.Net.Openloop.total_sent res.Net.Openloop.total_completed
    res.Net.Openloop.total_retried res.Net.Openloop.total_abandoned
    res.Net.Openloop.kills
    (p99 res.Net.Openloop.r_uncorrected)
    (p99 res.Net.Openloop.r_backfill)
    (p99 res.Net.Openloop.r_corrected)
    c.residue;
  if c.srv_served > 0 || c.srv_retries > 0 then
    Printf.printf "       server: served %d, retries %d\n%!" c.srv_served
      c.srv_retries;
  Option.iter
    (fun (plan : Fault.plan) ->
      Printf.printf "       fault: %s %s after %d hit(s)%s\n%!"
        (Fault.action_name plan.Fault.action)
        (Fault.point_name plan.Fault.point)
        plan.Fault.after
        (if res.Net.Openloop.kills > 0 then " — fired (kill)"
         else if
           List.exists
             (fun (cr : Net.Openloop.conn_result) -> cr.stalled_ns > 0)
             res.Net.Openloop.per_conn
         then " — fired (stall, released)"
         else ""))
    c.fault

let summary_table cells =
  let rows =
    List.map
      (fun c ->
        let p99 h = float_of_int (Histogram.percentile h 99.0) /. 1e3 in
        ( Printf.sprintf "%s@%.0fk" c.b_scheme (c.rate /. 1e3),
          [
            Some (c.res.Net.Openloop.offered_rps /. 1e3);
            Some (c.res.Net.Openloop.achieved_rps /. 1e3);
            Some (p99 c.res.Net.Openloop.r_uncorrected);
            Some (p99 c.res.Net.Openloop.r_backfill);
            Some (p99 c.res.Net.Openloop.r_corrected);
            Some (float_of_int c.res.Net.Openloop.total_retried);
            Some (float_of_int c.residue);
          ] ))
      cells
  in
  Report.table ~title:"netkv open-loop summary" ~row_label:"cell"
    ~columns:
      [
        "off-krps";
        "ach-krps";
        "p99us-raw";
        "p99us-bf";
        "p99us-corr";
        "retries";
        "residue";
      ]
    ~rows
    ~fmt:(Printf.sprintf "%.1f")

open Cmdliner

let schemes_arg =
  let doc = "Comma-separated schemes for in-process servers." in
  Arg.(value & opt Bench_cli.schemes [ "HP"; "EBR" ] & info [ "schemes" ] ~doc)

let rates_arg =
  let doc = "Comma-separated offered loads, requests/sec across all conns." in
  Arg.(value & opt (list float) [ 20000. ] & info [ "rates" ] ~doc)

let connect_arg =
  let doc =
    "Drive an external server at $(docv) (unix:/path or tcp:host:port) \
     instead of starting one per cell."
  in
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)

let conns_arg =
  let doc = "Client connections (one domain each)." in
  Arg.(value & opt int 4 & info [ "conns" ] ~doc)

let duration_arg =
  let doc = "Seconds of scheduled arrivals per cell." in
  Arg.(value & opt float 2.0 & info [ "duration" ] ~doc)

let drain_arg =
  let doc = "Extra seconds to wait for in-flight responses." in
  Arg.(value & opt float 2.0 & info [ "drain" ] ~doc)

let seed_arg =
  let doc = "Seed for the arrival plan and key draws." in
  Arg.(value & opt int 0x0b5e55ed & info [ "seed" ] ~doc)

let keys_arg =
  let doc = "Key-space size." in
  Arg.(value & opt int 16384 & info [ "keys" ] ~doc)

let read_pct_arg =
  let doc = "Percentage of requests that are GETs (rest split PUT/DELETE)." in
  Arg.(value & opt int 80 & info [ "read-pct" ] ~doc)

let dist_arg =
  let doc = "Key distribution: uniform or zipfian." in
  Arg.(value & opt Bench_cli.dist "uniform" & info [ "dist" ] ~doc)

let theta_arg =
  let doc = "Zipfian skew parameter (0 < theta < 1)." in
  Arg.(value & opt Bench_cli.theta 0.99 & info [ "theta" ] ~doc)

let prefill_arg =
  let doc = "PUTs sent over the wire before measurement (windowed)." in
  Arg.(value & opt int 8192 & info [ "prefill" ] ~doc)

let reactors_arg =
  let doc = "Reactor domains for in-process servers." in
  Arg.(value & opt int 2 & info [ "reactors" ] ~doc)

let shards_arg =
  let doc = "Shards for in-process servers." in
  Arg.(value & opt int 4 & info [ "shards" ] ~doc)

let queue_bound_arg =
  let doc = "Per-session request-queue bound." in
  Arg.(value & opt int 64 & info [ "queue-bound" ] ~doc)

let async_arg =
  let doc =
    "In-process servers hand full retire bags to a background collector \
     domain instead of scanning inline (sets $(b,async_reclaim) in the \
     scheme config; cells are labelled $(i,SCHEME+async))."
  in
  Arg.(value & flag & info [ "async-reclaim" ] ~doc)

let fault_seed_arg =
  let doc =
    "Arm a seeded client-side fault (Net_read/Net_write, kill or stall) \
     after prefill."
  in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let fault_release_arg =
  let doc = "Seconds before the watchdog releases a stalled client." in
  Arg.(value & opt float 0.5 & info [ "fault-release" ] ~doc)

let trace_raw_arg =
  let doc =
    "Record client-side wire events (send/completion per frame id) and \
     write the raw trace to $(docv) on exit — trace_merge.exe joins it \
     with a server-side --trace-raw dump into one timeline."
  in
  Arg.(value & opt (some string) None & info [ "trace-raw" ] ~docv:"FILE" ~doc)

let trace_depth_arg =
  let doc = "Trace ring capacity per domain, in events." in
  Arg.(value & opt int 65536 & info [ "trace-depth" ] ~doc)

let json_arg =
  let doc = "Write harness Results rows to $(docv) (opened before the run)." in
  Arg.(value & opt (some Bench_cli.json_out) None & info [ "json" ] ~doc)

let main schemes rates connect conns duration drain seed keys read_pct dist
    theta prefill reactors shards queue_bound async fault_seed fault_release
    trace_raw trace_depth json =
  let p =
    {
      conns;
      duration;
      seed;
      keys;
      read_pct;
      dist;
      theta;
      drain;
      reactors;
      shards;
      queue_bound;
      prefill;
      async;
      fault_seed;
      fault_release;
      trace_raw;
      trace_depth;
    }
  in
  if p.trace_raw <> None then begin
    Obs.Trace.set_clock (fun () -> Int64.to_int (Monotonic_clock.now ()));
    Obs.Trace.enable ~capacity:p.trace_depth ()
  end;
  Printf.printf
    "netkv open-loop bench: %d conn(s), %.2fs/cell + %.2fs drain, %d keys \
     (%s), %d%% reads, prefill %d, seed %#x, reclaim=%s\n%!"
    conns duration drain keys dist read_pct prefill seed
    (if async then "async" else "inline");
  Bench_harness.Results.set_experiment "netkv-openloop";
  let cells =
    match connect with
    | Some addr_s ->
        let addr = Net.Addr.parse addr_s in
        List.map
          (fun rate ->
            let c = run_remote p ~addr ~rate in
            print_cell c;
            c)
          rates
    | None ->
        List.concat_map
          (fun scheme ->
            List.map
              (fun rate ->
                let c = run_cell p ~scheme ~rate in
                print_cell c;
                c)
              rates)
          schemes
  in
  (match p.trace_raw with
  | None -> ()
  | Some path ->
      Obs.Trace.disable ();
      let snap = Obs.Trace.snapshot () in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Obs.Trace.write_raw oc snap);
      Printf.printf "wrote client raw trace to %s\n%!" path);
  summary_table cells;
  List.iter
    (fun c ->
      Bench_harness.Results.add
        ~extra:[ ("openloop", openloop_json c.res) ]
        ~ds:"netkv" ~scheme:c.b_scheme ~threads:p.conns ~key_range:p.keys
        ~workload:(Printf.sprintf "openloop-read%d" p.read_pct)
        c.result)
    cells;
  Option.iter
    (fun out ->
      Bench_cli.write_json out (Bench_harness.Results.to_json ());
      Printf.printf "wrote %d benchmark rows to %s\n%!" (List.length cells)
        out.Bench_cli.path)
    json

let cmd =
  let doc = "Open-loop load generator for the networked shardkv server" in
  Cmd.v
    (Cmd.info "netkv-bench" ~doc)
    Term.(
      const main $ schemes_arg $ rates_arg $ connect_arg $ conns_arg
      $ duration_arg $ drain_arg $ seed_arg $ keys_arg $ read_pct_arg
      $ dist_arg $ theta_arg $ prefill_arg $ reactors_arg $ shards_arg
      $ queue_bound_arg $ async_arg $ fault_seed_arg $ fault_release_arg
      $ trace_raw_arg $ trace_depth_arg $ json_arg)

let () = exit (Cmd.eval cmd)
