(* Long-running randomized soak of every data structure x scheme pair with
   the use-after-free detector on.

   Usage: soak [ROUNDS] [DOMAINS] [options] — see --help; beyond the trace
   and chaos flags it accepts the shared --metrics-listen ADDR /
   --metrics-every SECS pair, serving live per-pair reclamation counters at
   /metrics while the soak runs (and --metrics FILE still writes the final
   exposition to disk).

   A recorded trace is replay-checked in-process before exit; protocol
   violations fail the soak. In chaos mode only the four scheme-defining
   pairs run (hmlist/HP, hhslist/{HP++,EBR,PEBR}) — each once inline and
   once with the asynchronous reclamation pipeline on, where the plan may
   also stall or kill the background collector domain — every round ends
   with crash recovery and a structural UAF sweep, and the same SEED
   replays the same plans. *)

module Pool = Smr_core.Domain_pool
module Rng = Smr_core.Rng
module Stats = Smr_core.Stats
module Trace = Obs.Trace

(* The knobs stay refs (the Drive functors below read them directly); the
   cmdliner command at the bottom fills them in before running. *)

let rounds = ref 5
let domains = ref 4
let every = ref 0.0 (* 0 = no progress ticker *)
let trace_out = ref None
let trace_raw_out = ref None
let metrics_out = ref None
let trace_depth = ref 65536
let chaos = ref None

(* --- progress ticker ----------------------------------------------------- *)

(* One writer per field; the ticker domain reads racily, which is fine for a
   progress line. Workers batch their op counts to keep the shared counter
   off the hot path. *)
type progress = {
  mutable label : string;
  ops : int Atomic.t;
  mutable stats : Stats.t option;
}

let progress = { label = "startup"; ops = Atomic.make 0; stats = None }
let ticker_stop = Atomic.make false

let spawn_ticker period =
  Domain.spawn (fun () ->
      let t0 = Unix.gettimeofday () in
      let last_ops = ref 0 and last_t = ref t0 in
      while not (Atomic.get ticker_stop) do
        Unix.sleepf period;
        let now = Unix.gettimeofday () in
        let ops = Atomic.get progress.ops in
        let rate = float_of_int (ops - !last_ops) /. (now -. !last_t) in
        last_ops := ops;
        last_t := now;
        match progress.stats with
        | None -> ()
        | Some s ->
            Printf.printf
              "[%6.1fs] %-16s %8.0f ops/s | retired %d, reclaimed %d, \
               unreclaimed %d (peak %d)\n\
               %!"
              (now -. t0) progress.label rate (Stats.retired_total s)
              (Stats.freed s) (Stats.unreclaimed s) (Stats.peak_unreclaimed s)
      done)

let metrics_reg = Obs.Metrics.create ()

module Drive
    (S : Smr.Smr_intf.S)
    (L : Smr_ds.Ds_intf.MAP with type scheme = S.t and type handle = S.handle) =
struct
  let run name =
    progress.label <- name;
    for round = 1 to !rounds do
      let scheme = S.create () in
      progress.stats <- Some (S.stats scheme);
      let t = L.create scheme in
      let _ =
        Pool.run_timed ~n:!domains ~duration:0.25 (fun i ~stop ->
            let h = S.register scheme in
            let lo = L.make_local h in
            let rng = Rng.create ~seed:((round * 97) + i) in
            let local_ops = ref 0 in
            while not (stop ()) do
              let key = Rng.below rng 48 in
              (match Rng.below rng 4 with
              | 0 | 1 -> ignore (L.get t lo key)
              | 2 -> ignore (L.insert t lo key key)
              | _ -> ignore (L.remove t lo key));
              incr local_ops;
              if !local_ops land 1023 = 0 then begin
                ignore (Atomic.fetch_and_add progress.ops 1024)
              end
            done;
            ignore (Atomic.fetch_and_add progress.ops (!local_ops land 1023));
            L.clear_local lo;
            S.unregister h)
      in
      let contents = L.to_list t in
      let keys = List.map fst contents in
      assert (keys = List.sort_uniq compare keys);
      if round = !rounds && !metrics_out <> None then
        Service.Telemetry.add_smr_stats metrics_reg
          ~labels:[ ("pair", name) ]
          (S.stats scheme)
    done;
    Printf.printf "soak ok: %s (%d rounds x %d domains)\n%!" name !rounds
      !domains
end

(* --- chaos mode ---------------------------------------------------------- *)

(* Each round arms one seeded plan before the worker pool starts. A killed
   worker abandons its handle exactly where the exception found it — slots
   set, epoch pinned, invalidation pending — and the round ends by handing
   every such corpse to report_crashed, draining through a fresh survivor,
   and sweeping the structure for reachable-but-freed nodes. A stalled
   worker is released by a watchdog domain after the round's duration so
   the pool can join. *)
module Chaos_drive
    (S : Smr.Smr_intf.S)
    (L : Smr_ds.Ds_intf.MAP with type scheme = S.t and type handle = S.handle) =
struct
  let run ?(config = Smr.Smr_intf.default_config) name ~seed ~salt ~points =
    progress.label <- name;
    for round = 1 to !rounds do
      let scheme = S.create ~config () in
      progress.stats <- Some (S.stats scheme);
      let t = L.create scheme in
      let plan =
        Fault.arm_seeded ~seed:((seed * 31) + (salt * 7919) + round) ~points ()
      in
      Printf.printf "chaos %-14s round %d: %s at %s after %d hit(s)\n%!" name
        round
        (Fault.action_name plan.Fault.action)
        (Fault.point_name plan.Fault.point)
        plan.Fault.after;
      let victims = Array.make !domains None in
      let watchdog =
        if plan.Fault.action = Fault.Stall then
          Some
            (Domain.spawn (fun () ->
                 Unix.sleepf 0.35;
                 Fault.release ()))
        else None
      in
      let _ =
        Pool.run_timed ~n:!domains ~duration:0.25 (fun i ~stop ->
            let h = S.register scheme in
            let lo = L.make_local h in
            let rng = Rng.create ~seed:((round * 97) + i) in
            try
              while not (stop ()) do
                let key = Rng.below rng 48 in
                match Rng.below rng 4 with
                | 0 | 1 -> ignore (L.get t lo key)
                | 2 -> ignore (L.insert t lo key key)
                | _ -> ignore (L.remove t lo key)
              done;
              L.clear_local lo;
              S.unregister h
            with Fault.Killed _ -> victims.(i) <- Some h)
      in
      Option.iter Domain.join watchdog;
      Fault.reset ();
      Array.iter (function Some h -> S.report_crashed h | None -> ()) victims;
      (* Async rounds: stop the background collector (it may itself be the
         round's kill/stall victim), salvaging queued and pending bags into
         the orphanage; the survivor's flushes below adopt and free them.
         Inline rounds: a no-op. *)
      S.shutdown scheme;
      let survivor = S.register scheme in
      S.flush survivor;
      S.flush survivor;
      S.flush survivor;
      S.unregister survivor;
      L.assert_reachable_not_freed t;
      let contents = L.to_list t in
      let keys = List.map fst contents in
      assert (keys = List.sort_uniq compare keys);
      (* Recovery must leave at most a handful of counted-but-lost headers
         (a kill inside an unlink batch's marking loop), never churn-sized
         garbage. *)
      let residue = Stats.unreclaimed (S.stats scheme) in
      if residue > 64 then begin
        Printf.printf "chaos %s round %d: %d blocks unreclaimed after recovery\n"
          name round residue;
        exit 1
      end
    done;
    Printf.printf "chaos ok: %s (%d rounds x %d domains)\n%!" name !rounds
      !domains
end

let run_chaos seed =
  let module C1 = Chaos_drive (Hp) (Smr_ds.Hmlist.Make (Hp)) in
  C1.run "hmlist/HP" ~seed ~salt:1
    ~points:[ Fault.Retire; Fault.Protect; Fault.Reclaim ];
  let module C2 = Chaos_drive (Hp_plus) (Smr_ds.Hhslist.Make (Hp_plus)) in
  C2.run "hhslist/HP++" ~seed ~salt:2
    ~points:[ Fault.Retire; Fault.Protect; Fault.Unlink; Fault.Reclaim ];
  let module C3 = Chaos_drive (Ebr) (Smr_ds.Hhslist.Make (Ebr)) in
  C3.run "hhslist/EBR" ~seed ~salt:3
    ~points:[ Fault.Retire; Fault.Crit; Fault.Reclaim ];
  let module C4 = Chaos_drive (Pebr) (Smr_ds.Hhslist.Make (Pebr)) in
  C4.run "hhslist/PEBR" ~seed ~salt:4
    ~points:[ Fault.Retire; Fault.Protect; Fault.Crit; Fault.Reclaim ];
  (* Asynchronous-pipeline rounds: same pairs with the background collector
     on and [Fault.Collector] in the point set, so seeded plans also stall
     the collector mid-pipeline (the ring fills, mutators fall back inline)
     or kill its domain outright (queued bags must be salvaged on
     shutdown). The residue bound at the end of each round is the same. *)
  let async = { Smr.Smr_intf.default_config with async_reclaim = true } in
  C1.run "hmlist/HP+async" ~config:async ~seed ~salt:5
    ~points:[ Fault.Retire; Fault.Protect; Fault.Reclaim; Fault.Collector ];
  let module C5 = Chaos_drive (Hp_plus) (Smr_ds.Hhslist.Make (Hp_plus)) in
  C5.run "hhslist/HP+++async" ~config:async ~seed ~salt:6
    ~points:[ Fault.Retire; Fault.Unlink; Fault.Reclaim; Fault.Collector ];
  let module C6 = Chaos_drive (Ebr) (Smr_ds.Hhslist.Make (Ebr)) in
  C6.run "hhslist/EBR+async" ~config:async ~seed ~salt:7
    ~points:[ Fault.Retire; Fault.Crit; Fault.Collector ];
  let module C7 = Chaos_drive (Pebr) (Smr_ds.Hhslist.Make (Pebr)) in
  C7.run "hhslist/PEBR+async" ~config:async ~seed ~salt:8
    ~points:[ Fault.Retire; Fault.Crit; Fault.Reclaim; Fault.Collector ]

let run_standard () =
  let module M1 = Drive (Hp) (Smr_ds.Hmlist.Make (Hp)) in
  M1.run "hmlist/HP";
  let module M2 = Drive (Hp_plus) (Smr_ds.Hmlist.Make (Hp_plus)) in
  M2.run "hmlist/HP++";
  let module M3 = Drive (Hp_plus) (Smr_ds.Hhslist.Make (Hp_plus)) in
  M3.run "hhslist/HP++";
  let module M4 = Drive (Pebr) (Smr_ds.Hhslist.Make (Pebr)) in
  M4.run "hhslist/PEBR";
  let module M5 = Drive (Ebr) (Smr_ds.Hhslist.Make (Ebr)) in
  M5.run "hhslist/EBR";
  let module M6 = Drive (Rc) (Smr_ds.Hhslist.Make (Rc)) in
  M6.run "hhslist/RC";
  let module M7 = Drive (Hp_plus) (Smr_ds.Hashmap.Make (Hp_plus)) in
  M7.run "hashmap/HP++";
  let module M8 = Drive (Hp) (Smr_ds.Skiplist.Make (Hp)) in
  M8.run "skiplist/HP";
  let module M9 = Drive (Hp_plus) (Smr_ds.Skiplist.Make (Hp_plus)) in
  M9.run "skiplist/HP++";
  let module M10 = Drive (Hp_plus) (Smr_ds.Nmtree.Make (Hp_plus)) in
  M10.run "nmtree/HP++";
  let module M11 = Drive (Pebr) (Smr_ds.Nmtree.Make (Pebr)) in
  M11.run "nmtree/PEBR";
  let module M12 = Drive (Hp) (Smr_ds.Efrbtree.Make (Hp)) in
  M12.run "efrbtree/HP";
  let module M13 = Drive (Hp_plus) (Smr_ds.Efrbtree.Make (Hp_plus)) in
  M13.run "efrbtree/HP++";
  let module M14 = Drive (Nr) (Smr_ds.Efrbtree.Make (Nr)) in
  M14.run "efrbtree/NR";
  let module M15 = Drive (Pebr) (Smr_ds.Efrbtree.Make (Pebr)) in
  M15.run "efrbtree/PEBR";
  let module M16 = Drive (Hp_plus) (Smr_ds.Lazylist.Make (Hp_plus)) in
  M16.run "lazylist/HP++";
  let module M17 = Drive (Pebr) (Smr_ds.Lazylist.Make (Pebr)) in
  M17.run "lazylist/PEBR";
  let module M18 = Drive (Hp_plus) (Smr_ds.Bonsai.Make (Hp_plus)) in
  M18.run "bonsai/HP++";
  let module M19 = Drive (Pebr) (Smr_ds.Bonsai.Make (Pebr)) in
  M19.run "bonsai/PEBR";
  let module M20 = Drive (Rc) (Smr_ds.Bonsai.Make (Rc)) in
  M20.run "bonsai/RC"

(* Live scrape: the current pair's SMR counters (labelled by pair name) plus
   a whole-soak op counter. [progress] has one writer per field and is read
   racily here, same as the ticker. *)
let live_sample m =
  Obs.Metrics.counter m ~help:"Operations completed across all soak pairs"
    "soak_ops_total"
    (float_of_int (Atomic.get progress.ops));
  match progress.stats with
  | None -> ()
  | Some s ->
      Service.Telemetry.add_smr_stats m
        ~labels:[ ("pair", progress.label) ]
        s

let run metrics_live =
  let tracing = !trace_out <> None || !trace_raw_out <> None in
  if tracing then Trace.enable ~capacity:!trace_depth ();
  let exposition = Obs_cli.start metrics_live ~sample:live_sample in
  Option.iter
    (fun e ->
      Printf.printf "metrics on http://127.0.0.1:%d/metrics\n%!"
        (Obs.Exposition.port e))
    exposition;
  let ticker = if !every > 0.0 then Some (spawn_ticker !every) else None in
  (match !chaos with
  | Some seed -> run_chaos seed
  | None -> run_standard ());
  Option.iter
    (fun t ->
      Atomic.set ticker_stop true;
      Domain.join t)
    ticker;
  let violations = ref 0 in
  if tracing then begin
    Trace.disable ();
    let snap = Trace.snapshot () in
    Option.iter
      (fun path ->
        Obs.Chrome.write path snap;
        Printf.printf "wrote %d trace events to %s (dropped %d)\n%!"
          (Array.length snap.Trace.events)
          path snap.Trace.dropped)
      !trace_out;
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Trace.write_raw oc snap);
        Printf.printf "wrote raw trace to %s\n%!" path)
      !trace_raw_out;
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
  Option.iter
    (fun path ->
      Obs.Metrics.write path metrics_reg;
      Printf.printf "wrote metrics exposition to %s\n%!" path)
    !metrics_out;
  Option.iter Obs.Exposition.stop exposition;
  if !violations > 0 then exit 1;
  print_endline "all soaks passed"

open Cmdliner

(* Bad values are usage errors raised while parsing, before any domain is
   spawned. A round runs DOMAINS workers beside up to six other domains
   (main, timer, chaos watchdog, ticker, metrics listener, collector), all
   under OCaml's limit of 128 live domains, so DOMAINS stops short of it. *)
let max_domains = 120

let rounds_arg =
  let doc = "Soak rounds per data-structure x scheme pair (at least 1)." in
  Arg.(
    value
    & pos 0 (Bench_cli.int_range ~min:1 ~max:max_int) 5
    & info [] ~docv:"ROUNDS" ~doc)

let domains_arg =
  let doc =
    Printf.sprintf "Worker domains per round (1 to %d)." max_domains
  in
  Arg.(
    value
    & pos 1 (Bench_cli.int_range ~min:1 ~max:max_domains) 4
    & info [] ~docv:"DOMAINS" ~doc)

let every_arg =
  let doc =
    "Print a one-line progress snapshot every $(docv) seconds (0: never)."
  in
  Arg.(
    value
    & opt Bench_cli.non_negative_float 0.0
    & info [ "every" ] ~docv:"SEC" ~doc)

let trace_arg =
  let doc = "Record SMR events and write Chrome trace JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_raw_arg =
  let doc =
    "Write the raw trace artifact (the format trace_check.exe reads) to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace-raw" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write per-pair reclamation counters (Prometheus text) to $(docv) on \
     exit."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_depth_arg =
  let doc = "Trace ring capacity per domain, in events (at least 1)." in
  Arg.(
    value
    & opt (Bench_cli.int_range ~min:1 ~max:max_int) 65536
    & info [ "trace-depth" ] ~doc)

let chaos_arg =
  let doc =
    "Fault-injection mode: each round arms one seeded kill or stall at a \
     random SMR protocol point; killed handles are recovered via \
     report_crashed."
  in
  Arg.(value & opt (some int) None & info [ "chaos" ] ~docv:"SEED" ~doc)

let main r d ev tr traw m depth ch metrics_live =
  rounds := r;
  domains := d;
  every := ev;
  trace_out := tr;
  trace_raw_out := traw;
  metrics_out := m;
  trace_depth := depth;
  chaos := ch;
  run metrics_live

let cmd =
  let doc = "Randomized soak of every data structure x scheme pair" in
  Cmd.v
    (Cmd.info "soak" ~doc)
    Term.(
      const main $ rounds_arg $ domains_arg $ every_arg $ trace_arg
      $ trace_raw_arg $ metrics_arg $ trace_depth_arg $ chaos_arg
      $ Obs_cli.term)

let () = exit (Cmd.eval cmd)
