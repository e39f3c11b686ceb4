(* Standalone networked shardkv server: listeners (unix:/path and/or
   tcp:host:port), a reactor pool, and a chosen SMR scheme behind the store.

     dune exec bin/netkv_server.exe -- --listen unix:/tmp/netkv.sock --scheme HP++

   Runs until --duration expires or SIGTERM/SIGINT arrives, then stops
   gracefully: the acceptor dies first, reactors close their connections
   cleanly, a final reap recovers anything client churn left dead, and the
   final service/net stats are printed as JSON. With --trace-raw the SMR
   event trace is dumped in trace_check.exe's format and replay-checked
   in-process; protocol violations make the exit code nonzero. *)

module Trace = Obs.Trace
module Json = Service.Json

type params = {
  addrs : Net.Addr.t list;
  scheme : string;
  shards : int;
  reactors : int;
  queue_bound : int;
  duration : float; (* <= 0.0: run until a signal *)
  async : bool; (* background collector domain behind the store *)
  trace_raw : string option;
  trace_depth : int;
  metrics : Obs_cli.t;
}

module Run (S : Smr.Smr_intf.S) = struct
  module Srv = Net.Server.Make (S)

  let go p =
    let tracing = p.trace_raw <> None in
    if tracing then begin
      Trace.set_clock (fun () -> Int64.to_int (Monotonic_clock.now ()));
      Trace.enable ~capacity:p.trace_depth ()
    end;
    let config =
      if p.async then
        { Smr.Smr_intf.default_config with async_reclaim = true }
      else Smr.Smr_intf.default_config
    in
    let srv =
      Srv.start ~reactors:p.reactors ~queue_bound:p.queue_bound ~config
        ~shards:p.shards
        ?metrics:(Obs_cli.metrics_of p.metrics)
        p.addrs
    in
    Printf.printf
      "netkv server: scheme=%s shards=%d reactors=%d reclaim=%s listening on \
       %s\n\
       %!"
      S.name p.shards p.reactors
      (if p.async then "async" else "inline")
      (String.concat ", " (List.map Net.Addr.to_string p.addrs));
    Option.iter
      (fun port ->
        Printf.printf "netkv server: metrics on http://127.0.0.1:%d/metrics\n%!"
          port)
      (Srv.metrics_port srv);
    let stop = Atomic.make false in
    let on_signal _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let t0 = Unix.gettimeofday () in
    while
      (not (Atomic.get stop))
      && (p.duration <= 0.0 || Unix.gettimeofday () -. t0 < p.duration)
    do
      (* a signal interrupts the sleep; the loop re-checks the flag *)
      try Unix.sleepf 0.1 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    let final = Srv.stats_json srv in
    Srv.stop srv;
    Printf.printf "netkv server: final stats %s\n%!" (Json.to_string final);
    Printf.printf "netkv server: residue after stop+reap = %d unreclaimed\n%!"
      (Srv.residue srv);
    let violations = ref 0 in
    if tracing then begin
      Trace.disable ();
      let snap = Trace.snapshot () in
      Option.iter
        (fun path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> Trace.write_raw oc snap);
          Printf.printf "wrote raw trace to %s\n%!" path)
        p.trace_raw;
      match Obs.Check.run_snapshot snap with
      | Ok summary ->
          Format.printf "trace check: clean — %a@." Obs.Check.pp_summary summary
      | Error vs ->
          violations := List.length vs;
          Printf.printf "trace check: %d violation(s)\n" !violations;
          List.iteri
            (fun i v ->
              if i < 20 then Format.printf "  %a@." Obs.Check.pp_violation v)
            vs
    end;
    if !violations > 0 then exit 1
end

let run p =
  let module S = (val Option.get (Schemes.find p.scheme)) in
  let module R = Run (S) in
  R.go p

open Cmdliner

let listen_arg =
  let doc = "Listen address (repeatable): unix:/path or tcp:host:port." in
  Arg.(
    value
    & opt_all string [ "unix:/tmp/netkv.sock" ]
    & info [ "listen" ] ~docv:"ADDR" ~doc)

let scheme_arg =
  let doc =
    Printf.sprintf "Reclamation scheme (%s)." (String.concat ", " Schemes.names)
  in
  Arg.(value & opt Bench_cli.scheme "HP" & info [ "scheme" ] ~doc)

let shards_arg =
  let doc = "Shard count (rounded up to a power of two)." in
  Arg.(value & opt int 4 & info [ "shards" ] ~doc)

let reactors_arg =
  let doc = "Reactor domains serving connections." in
  Arg.(value & opt int 2 & info [ "reactors" ] ~doc)

let queue_bound_arg =
  let doc = "Per-session request-queue bound (RETRY beyond it)." in
  Arg.(value & opt int 64 & info [ "queue-bound" ] ~doc)

let duration_arg =
  let doc = "Seconds to serve; 0 means until SIGTERM/SIGINT." in
  Arg.(value & opt float 0.0 & info [ "duration" ] ~doc)

let async_arg =
  let doc =
    "Hand full retire bags to a background collector domain instead of \
     scanning inline (sets $(b,async_reclaim) in the scheme config)."
  in
  Arg.(value & flag & info [ "async-reclaim" ] ~doc)

let trace_raw_arg =
  let doc =
    "Record SMR events, write the raw trace (the format trace_check.exe \
     reads) to $(docv) on exit, and replay-check it in-process."
  in
  Arg.(value & opt (some string) None & info [ "trace-raw" ] ~docv:"FILE" ~doc)

let trace_depth_arg =
  let doc = "Trace ring capacity per domain, in events." in
  Arg.(value & opt int 65536 & info [ "trace-depth" ] ~doc)

let main listen scheme shards reactors queue_bound duration async trace_raw
    trace_depth metrics =
  run
    {
      addrs = List.map Net.Addr.parse listen;
      scheme;
      shards;
      reactors;
      queue_bound;
      duration;
      async;
      trace_raw;
      trace_depth;
      metrics;
    }

let cmd =
  let doc = "Networked shardkv server (binary wire protocol over unix/tcp)" in
  Cmd.v
    (Cmd.info "netkv-server" ~doc)
    Term.(
      const main $ listen_arg $ scheme_arg $ shards_arg $ reactors_arg
      $ queue_bound_arg $ duration_arg $ async_arg $ trace_raw_arg
      $ trace_depth_arg $ Obs_cli.term)

let () = exit (Cmd.eval cmd)
