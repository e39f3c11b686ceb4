(* The repo benchmark. One run measures one workload for --seconds and
   prints, as its last stdout line, one JSON object: the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1). The lines
   before it name every metric with its unit and sample count, and a
   [record] line carries what is needed to reproduce the run. Exit status
   is 1 when an output check failed, 2 on bad usage. See NOTES.md. *)

module J = Service.Json

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per_kop a ops = 1000.0 *. ratio a ops

(* --- metrics --------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string; samples : int }

let m name samples value =
  { name; unit = Spec.unit_of name; samples; value = (if Float.is_finite value then value else 0.0) }

(* --- reproducibility ------------------------------------------------------ *)

(* Taken before a netkv run pins itself to one CPU, which this count
   would otherwise follow. *)
let nproc = Domain.recommended_domain_count ()

let record_json ~workload ~seed ~rev ~busy ~rounds ~window extra =
  J.Obj
    ([
       ("workload", J.String workload);
       ("seed", J.Int seed);
       ("rev", J.String rev);
       ("profile", J.String Build_info.profile);
       ("nproc", J.Int nproc);
       ("busy_domains", J.Int busy);
       ("rounds", J.Int rounds);
       ("window_s", J.Float window);
       ("uaf_detector", J.Bool (Smr_core.Mem.checking ()));
       ("minor_heap_words", J.Int (Gc.get ()).minor_heap_size);
     ]
    @ extra)

(* --- the in-process workloads ------------------------------------------- *)

module Plain_closed = Closed.Make (Hp_plus)
module Traced_closed = Closed.Make (Timed.Make (Hp_plus))

(* The rounds whose figures count. A round in which the process got less
   than [disturbed_below] of the CPU per wall second that the run's best
   round got lost its CPUs to the host: to steal, or to stalls the guest
   does not see. Its figures are left out, unless that leaves fewer than
   half the rounds; then the half with the most CPU count. On the shared
   VM the benchmark was built on, a calm round gets within 10% of the best,
   and a disturbed one can drop below a third of it. *)
let disturbed_below = 0.8

let undisturbed share rs =
  let best = List.fold_left (fun a r -> Float.max a (share r)) 0.0 rs in
  let kept = List.filter (fun r -> share r >= disturbed_below *. best) rs in
  let half = (List.length rs + 1) / 2 in
  if List.length kept >= half then kept
  else List.filteri (fun i _ -> i < half) (List.stable_sort (fun a b -> compare (share b) (share a)) rs)

(* Per-round values of the end-to-end metrics, for the record. *)
let per_round (ms : metric list list) =
  match ms with
  | [] -> []
  | first :: _ ->
      [ ( "per_round",
          J.Obj
            (List.map
               (fun x ->
                 ( x.name,
                   J.List (List.map (fun l -> J.Float (List.find (fun y -> y.name = x.name) l).value) ms) ))
               first) ) ]

let closed_e2e (rs : Closed.round list) =
  let f g = median (List.map g rs) in
  let all r = Hist.merge (Array.to_list r.Closed.lat) in
  let ops = List.fold_left (fun a r -> a + r.Closed.ops) 0 rs in
  let samples = List.fold_left (fun a r -> a + r.Closed.garbage_samples) 0 rs in
  [
    m "throughput_ops_s" ops (f Closed.throughput);
    m "latency_p50_us" ops (f (fun r -> Hist.percentile (all r) 50.0 /. 1e3));
    m "latency_p90_us" ops (f (fun r -> Hist.percentile (all r) 90.0 /. 1e3));
    m "garbage_peak_blocks" (List.length rs)
      (f (fun r -> float_of_int r.Closed.garbage_peak));
    m "garbage_avg_blocks" samples
      (f (fun r -> ratio r.Closed.garbage_sum r.garbage_samples));
    m "setup_s" (List.length rs) (f (fun r -> float_of_int r.Closed.setup_ns /. 1e9));
  ]

let closed_checks ~name (rs : Closed.round list) =
  List.concat_map
    (fun (r : Closed.round) ->
      (if r.size <> r.expected_size then
         [ Printf.sprintf "%s: final size %d, expected %d (prefill + inserts - removes)"
             name r.size r.expected_size ]
       else [])
      @ (match r.reachable_ok with
        | Some e -> [ name ^ ": assert_reachable_not_freed: " ^ e ]
        | None -> [])
      @ List.map (fun e -> name ^ ": worker raised " ^ e) r.raised
      @ if r.wrong > 0 then [ Printf.sprintf "%s: %d gets returned a wrong value" name r.wrong ]
        else [])
    rs

let closed_failed rs =
  List.fold_left (fun a r -> a + r.Closed.wrong + List.length r.Closed.raised) 0 rs

let closed_layers (rs : Closed.round list) (tm : Timed.counters) =
  let h i = Hist.merge (List.map (fun r -> r.Closed.lat.(i)) rs) in
  let hs = Array.init 3 h in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let ops = sum (fun r -> r.Closed.ops) in
  let att i = sum (fun r -> r.Closed.attempts.(i)) in
  let succ i = sum (fun r -> r.Closed.successes.(i)) in
  let ds_ns = Array.fold_left (fun a x -> a + Hist.sum x) 0 hs in
  let smr_ns = Hist.sum tm.try_unlink_self + Hist.sum tm.retire in
  let fences = sum (fun r -> r.Closed.heavy_fences) in
  let pct x q = Hist.percentile x q in
  let ds =
    List.concat
      (List.mapi
         (fun i k ->
           [
             m (Printf.sprintf "smr_ds.%s_ns.p50" k) (Hist.count hs.(i)) (pct hs.(i) 50.0);
             m (Printf.sprintf "smr_ds.%s_ns.p99" k) (Hist.count hs.(i)) (pct hs.(i) 99.0);
           ])
         (Array.to_list Closed.kinds))
  in
  let colls = List.filter_map (fun r -> r.Closed.collector) rs in
  let csum f = List.fold_left (fun a c -> a + f c.Smr.Collector.ctrs) 0 colls in
  let handoffs = csum (fun c -> c.handoffs) and fallbacks = csum (fun c -> c.fallbacks) in
  let drain_p99 =
    (* cumulative (upper bound s, count) buckets, summed over rounds *)
    let total = List.fold_left (fun a c -> a + c.Smr.Collector.drain_duration.count) 0 colls in
    match colls with
    | [] -> 0.0
    | c0 :: _ ->
        let bounds = List.map fst c0.drain_duration.buckets in
        let cum b =
          List.fold_left
            (fun a c -> a + (try List.assoc b c.Smr.Collector.drain_duration.buckets with Not_found -> 0))
            0 colls
        in
        let target = 0.99 *. float_of_int total in
        (match List.find_opt (fun b -> float_of_int (cum b) >= target) bounds with
        | Some b -> b
        | None -> 0.0)
  in
  let drains_count = List.fold_left (fun a c -> a + c.Smr.Collector.drain_duration.count) 0 colls in
  let samples = sum (fun r -> r.Closed.garbage_samples) in
  ( ds
    @ [
        m "smr_ds.insert.success_ratio" (att 1) (ratio (succ 1) (att 1));
        m "smr_ds.remove.success_ratio" (att 2) (ratio (succ 2) (att 2));
        m "smr_ds.self_ns_per_op" ops (ratio (ds_ns - smr_ns) ops);
        m "smr_ds.unlink_cas_ns.mean" (Hist.count tm.unlink_cas) (Hist.mean tm.unlink_cas);
        m "smr_ds.invalidate_ns.mean" (Hist.count tm.invalidate) (Hist.mean tm.invalidate);
        m "smr.protect.per_op" ops (ratio tm.protect ops);
        m "smr.protect.fail_ratio" tm.protect
          (ratio (sum (fun r -> r.Closed.protection_failures)) tm.protect);
        m "smr.crit_refresh.per_op" ops (ratio tm.crit_refresh ops);
        m "smr.try_unlink.per_op" ops (ratio tm.try_unlink ops);
        m "smr.try_unlink.success_ratio" tm.try_unlink (ratio tm.try_unlink_ok tm.try_unlink);
        m "smr.try_unlink.self_ns.mean" (Hist.count tm.try_unlink_self) (Hist.mean tm.try_unlink_self);
        m "smr.try_unlink.self_ns.p99" (Hist.count tm.try_unlink_self) (pct tm.try_unlink_self 99.0);
        m "smr.retire_ns.p99" (Hist.count tm.retire) (pct tm.retire 99.0);
        m "smr.reclaim.passes_per_kop" ops (per_kop fences ops);
        m "smr.reclaim.freed_per_pass" fences (ratio (sum (fun r -> r.Closed.freed)) fences);
        m "smr.alloc_per_op" ops (ratio (sum (fun r -> r.Closed.allocated)) ops);
        m "smr.self_ns_per_op" ops (ratio smr_ns ops);
        m "smr.register_ns" (Hist.count tm.register) (Hist.mean tm.register);
        m "smr.unregister_ns" (Hist.count tm.unregister) (Hist.mean tm.unregister);
      ]
    @
    if colls = [] then []
    else
      [
        m "smr.collector.handoff_success_ratio" (handoffs + fallbacks)
          (ratio handoffs (handoffs + fallbacks));
        m "smr.collector.drains_per_kop" ops (per_kop (csum (fun c -> c.drains)) ops);
        m "smr.collector.steals_per_kop" ops (per_kop (csum (fun c -> c.steals)) ops);
        m "smr.collector.fallbacks_per_kop" ops (per_kop fallbacks ops);
        m "smr.collector.drain_s.p99" drains_count drain_p99;
        m "smr.collector.pass_age.max" samples
          (float_of_int (List.fold_left (fun a r -> max a r.Closed.pass_age_max) 0 rs));
        m "smr.collector.ring_occupancy.mean" samples
          (ratio (sum (fun r -> r.Closed.occupancy_sum)) samples);
      ] )

(* Counted-only SMR calls of the traced rounds, per operation. *)
let calls_per_op (tm : Timed.counters) ops =
  ( "smr_calls_per_op",
    J.Obj
      (List.map
         (fun (k, n) -> (k, J.Float (ratio n ops)))
         [
           ("protect", tm.protect);
           ("release", tm.release);
           ("guard", tm.guard);
           ("crit_enter", tm.crit_enter);
           ("crit_refresh", tm.crit_refresh);
         ]) )

(* --- the netkv workload --------------------------------------------------- *)

module Plain_net = Netkv.Make (Hp_plus)
module Traced_net = Netkv.Make (Timed.Make (Hp_plus))

let net_e2e (rs : Netkv.round list) =
  let f g = median (List.map g rs) in
  let n = List.fold_left (fun a r -> a + Hist.count r.Netkv.latency) 0 rs in
  let samples = List.fold_left (fun a r -> a + r.Netkv.garbage_samples) 0 rs in
  [
    m "throughput_ops_s" n (f (fun r -> float_of_int r.Netkv.completed /. r.cpu_s));
    m "latency_p50_us" n (f (fun r -> Hist.percentile r.Netkv.latency 50.0 /. 1e3));
    m "latency_p90_us" n (f (fun r -> Hist.percentile r.Netkv.latency 90.0 /. 1e3));
    m "garbage_peak_blocks" (List.length rs)
      (f (fun r -> float_of_int r.Netkv.garbage_peak));
    m "garbage_avg_blocks" samples
      (f (fun r -> ratio r.Netkv.garbage_sum r.garbage_samples));
    m "setup_s" (List.length rs) (f (fun r -> float_of_int r.Netkv.setup_ns /. 1e9));
  ]

let net_checks (rs : Netkv.round list) =
  List.concat_map
    (fun (r : Netkv.round) ->
      (if r.abandoned > 0 then [ Printf.sprintf "netkv: %d requests abandoned" r.abandoned ] else [])
      @ (if r.errors > 0 then [ Printf.sprintf "netkv: %d error or undecodable responses" r.errors ] else [])
      @ (if r.wrong > 0 then [ Printf.sprintf "netkv: %d responses do not fit their request" r.wrong ] else [])
      @ (match r.validate_error with Some e -> [ "netkv: " ^ e ] | None -> [])
      @ (if r.size <> r.expected_size then
           [ Printf.sprintf "netkv: server holds %d keys, expected %d" r.size r.expected_size ]
         else [])
      @ if r.residue <> 0 then [ Printf.sprintf "netkv: residue %d after stop" r.residue ] else [])
    rs

let net_failed rs =
  List.fold_left
    (fun a r -> a + r.Netkv.retried + r.Netkv.errors + r.Netkv.wrong + r.Netkv.abandoned)
    0 rs

let net_layers (rs : Netkv.round list) (tm : Timed.counters) =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let sent = sum (fun r -> r.Netkv.sent) in
  let latency = Hist.merge (List.map (fun r -> r.Netkv.latency) rs) in
  let raw = Hist.merge (List.map (fun r -> r.Netkv.raw) rs) in
  let spans = Array.init 4 (fun _ -> Hist.create ()) in
  let depth = ref 0 and depth_n = ref 0 in
  List.iter
    (fun (r : Netkv.round) ->
      match r.trace with
      | None -> ()
      | Some snap ->
          Array.iter
            (fun (e : Obs.Trace.event) ->
              match e.kind with
              | Obs.Trace.Span when e.uid >= 0 && e.a >= Obs.Merge.op_rpc && e.a <= Obs.Merge.op_write ->
                  Hist.record spans.(e.a - Obs.Merge.op_rpc) e.b
              | Obs.Trace.Req_recv when e.b >= 0 ->
                  depth := !depth + e.b;
                  incr depth_n
              | _ -> ())
            (Obs.Merge.synthesize_spans snap).events)
    rs;
  let service =
    List.concat_map
      (fun (op, name) ->
        let s = List.filter_map (fun r -> List.assoc_opt op r.Netkv.service) rs in
        let n = List.fold_left (fun a (x : Service.Histogram.summary) -> a + x.count) 0 s in
        let med f = median (List.map (fun x -> float_of_int (f x)) s) in
        [
          m (Printf.sprintf "service.%s_ns.p50" name) n (med (fun (x : Service.Histogram.summary) -> x.p50));
          m (Printf.sprintf "service.%s_ns.p99" name) n (med (fun (x : Service.Histogram.summary) -> x.p99));
        ])
      Service.Service_stats.[ (Get, "get"); (Put, "put"); (Delete, "delete") ]
  in
  service
  @ [ m "net.client_lag_us.mean" (Hist.count latency) ((Hist.mean latency -. Hist.mean raw) /. 1e3) ]
  @ List.concat
      (List.mapi
         (fun i name ->
           let h = spans.(i) in
           [
             m (Printf.sprintf "net.%s_us.p50" name) (Hist.count h) (Hist.percentile h 50.0 /. 1e3);
             m (Printf.sprintf "net.%s_us.p99" name) (Hist.count h) (Hist.percentile h 99.0 /. 1e3);
           ])
         [ "rpc"; "queue"; "serve"; "write" ])
  @ [
      m "net.queue_depth.mean" !depth_n (ratio !depth !depth_n);
      m "net.retry_ratio" sent (ratio (sum (fun r -> r.Netkv.retried)) sent);
      m "smr.protect.per_op" sent (ratio tm.protect sent);
      m "smr.register_ns" (Hist.count tm.register) (Hist.mean tm.register);
      m "smr.unregister_ns" (Hist.count tm.unregister) (Hist.mean tm.unregister);
    ]

(* --- command line ------------------------------------------------------------ *)

(* A run is a series of rounds of about [round_s] seconds, each with its
   own set-up; every metric is the median over rounds, which keeps one
   descheduled stretch on a shared 2-vCPU box from moving a run's figures.
   Rounds of 1 s give a 24 s run 24 rounds to take the median over, and
   let the disturbed-round rule drop a burst of steal without dropping
   2 s of load. A traced run alternates untraced and traced rounds. *)
let round_s = 1.0

let plan ~seconds ~trace =
  let phases = if trace then 2 else 1 in
  let rounds = max 1 (int_of_float (Float.round (seconds /. (round_s *. float_of_int phases)))) in
  (rounds, seconds /. float_of_int (phases * rounds))

type outcome = {
  e2e : metric list;
  layers : metric list;
  attempted : int;
  failed : int;
  problems : string list;
  warnings : string list;
  busy : int;
  extra : (string * J.t) list;
}

let run_closed ~name spec ~seed ~seconds ~trace ~size_skew =
  let rounds, window = plan ~seconds ~trace in
  let plain = ref [] and traced = ref [] and tms = ref [] in
  for i = 0 to rounds - 1 do
    plain := Plain_closed.round ~size_skew spec ~seed ~round:i ~window () :: !plain;
    if trace then begin
      traced :=
        Traced_closed.round ~size_skew ~sample_collector:true ~on_start:Timed.reset
          ~on_stop:(fun () -> tms := Timed.snapshot () :: !tms)
          spec ~seed ~round:(rounds + i) ~window ()
        :: !traced
    end
  done;
  let all = !plain @ !traced in
  let kept = undisturbed Closed.cpu_share !plain in
  let e2e = closed_e2e kept in
  let tm = Timed.sum !tms in
  let layers =
    if not trace then []
    else
      let tput rs = (List.hd (closed_e2e (undisturbed Closed.cpu_share rs))).value in
      closed_layers !traced tm
      @ [ m "trace.overhead_ratio" (List.length !traced) (tput !traced /. tput !plain) ]
  in
  let residue = List.fold_left (fun a r -> max a r.Closed.residue) 0 all in
  {
    e2e;
    layers;
    attempted = List.fold_left (fun a r -> a + r.Closed.ops) 0 all;
    failed = closed_failed all;
    problems = closed_checks ~name all;
    warnings = [];
    busy = spec.workers + if spec.async then 1 else 0;
    extra =
      [
        ("structure", J.String (match spec.structure with `List -> "HHSList" | `Map -> "HashMap(HHS buckets)"));
        ("scheme", J.String Hp_plus.name);
        ("workers", J.Int spec.workers);
        ("async_reclaim", J.Bool spec.async);
        ("keys", J.Int spec.keys);
        ("mix_get_insert_remove", J.List [ J.Int spec.get_pct; J.Int spec.insert_pct;
                                          J.Int (100 - spec.get_pct - spec.insert_pct) ]);
        ("max_residue_blocks", J.Int residue);
        ( "latency_p99_us",
          J.Float (median (List.map (fun r -> Hist.percentile (Hist.merge (Array.to_list r.Closed.lat)) 99.0 /. 1e3) kept)) );
      ]
      @ per_round (List.map (fun r -> closed_e2e [ r ]) (List.rev !plain))
      @ [
          (* throughput_ops_s counts CPU time; these are the wall-clock
             figures beside it *)
          ("per_round_wall_throughput_ops_s",
           J.List (List.rev_map (fun r -> J.Float (Closed.wall_throughput r)) !plain));
          ("per_round_cpu_s", J.List (List.rev_map (fun r -> J.Float r.Closed.cpu_s) !plain));
          ("per_round_kept", J.List (List.rev_map (fun r -> J.Bool (List.memq r kept)) !plain));
        ]
      @ if trace then [ calls_per_op tm (List.fold_left (fun a r -> a + r.Closed.ops) 0 !traced) ] else [];
  }

let run_net ~seed ~seconds ~trace ~size_skew =
  let cpu = Netkv.pin_to_current_cpu () in
  if cpu < 0 then begin
    prerr_endline "perfbench: could not pin the netkv run to one CPU";
    exit 2
  end;
  let rounds, window = plan ~seconds ~trace in
  let skew (r : Netkv.round) = { r with expected_size = r.expected_size + size_skew } in
  let plain = ref [] and traced = ref [] and tms = ref [] in
  for i = 0 to rounds - 1 do
    plain := skew (Plain_net.round ~seed ~round:i ~window ()) :: !plain;
    if trace then begin
      traced :=
        skew
          (Traced_net.round ~trace:true ~on_start:Timed.reset
             ~on_stop:(fun () -> tms := Timed.snapshot () :: !tms)
             ~seed ~round:(rounds + i) ~window ())
        :: !traced
    end
  done;
  let all = !plain @ !traced in
  let tm = Timed.sum !tms in
  let layers =
    if not trace then []
    else
      let tput rs = (List.hd (net_e2e (undisturbed Netkv.cpu_share rs))).value in
      net_layers !traced tm
      @ [ m "trace.overhead_ratio" (List.length !traced) (tput !traced /. tput !plain) ]
  in
  let dropped =
    List.fold_left
      (fun a r -> a + match r.Netkv.trace with Some t -> t.Obs.Trace.dropped | None -> 0)
      0 !traced
  in
  let kept = undisturbed Netkv.cpu_share !plain in
  let late = Hist.merge (List.map (fun r -> r.Netkv.late) all) in
  let c = Netkv.config in
  {
    e2e = net_e2e kept;
    layers;
    attempted = List.fold_left (fun a r -> a + r.Netkv.sent) 0 all;
    failed = net_failed all;
    problems = net_checks all;
    warnings =
      (if dropped > 0 then
         [ Printf.sprintf
             "%d trace events lost to ring wraparound; the net.* spans and queue depth cover \
              only the end of the affected rounds" dropped ]
       else []);
    busy = 2;
    extra =
      [
        ( "server",
          J.Obj
            [
              ("scheme", J.String Hp_plus.name);
              ("reactors", J.Int c.reactors);
              ("shards", J.Int c.shards);
              ("queue_bound", J.Int c.queue_bound);
              ("transport", J.String "unix socket, one pipelined connection");
            ] );
        ("pinned_cpu", J.Int cpu);
        ("in_flight", J.Int c.window);
        ("keys", J.Int c.keys);
        ("prefill", J.Int c.prefill);
        ("mix_get_put_delete", J.List [ J.Int c.get_pct; J.Int c.put_pct;
                                       J.Int (100 - c.get_pct - c.put_pct) ]);
        ( "client_issue_to_wire_us",
          J.Obj
            [
              ("samples", J.Int (Hist.count late));
              ("mean", J.Float (Hist.mean late /. 1e3));
              ("p99", J.Float (Hist.percentile late 99.0 /. 1e3));
              ("max", J.Float (float_of_int late.Hist.max /. 1e3));
            ] );
        ("retried", J.Int (List.fold_left (fun a r -> a + r.Netkv.retried) 0 all));
        ("trace_dropped_events", J.Int dropped);
        ("max_residue_blocks", J.Int (List.fold_left (fun a r -> max a r.Netkv.residue) 0 all));
        ("latency_p99_us", J.Float (median (List.map (fun r -> Hist.percentile r.Netkv.latency 99.0 /. 1e3) kept)));
      ]
      @ per_round (List.map (fun r -> net_e2e [ r ]) (List.rev !plain))
      @ [
          ("per_round_wall_throughput_ops_s",
           J.List (List.rev_map (fun r -> J.Float (float_of_int r.Netkv.completed /. r.elapsed_s)) !plain));
          ("per_round_cpu_s", J.List (List.rev_map (fun r -> J.Float r.Netkv.cpu_s) !plain));
          ("per_round_kept", J.List (List.rev_map (fun r -> J.Bool (List.memq r kept)) !plain));
        ]
      @ if trace then [ calls_per_op tm (List.fold_left (fun a r -> a + r.Netkv.sent) 0 !traced) ] else [];
  }

(* Every domain of the run gets a minor heap of [minor_heap_words] (8 MB),
   four times the runtime's default. A minor collection stops every
   domain, the server's blocked acceptor included, whose backup thread has
   to be woken for it; on a shared VM each stop waits for every vCPU to be
   scheduled. At the default size map-read collected about four times as
   often, and its throughput across runs a few minutes apart spread 2-5
   times wider (NOTES.md). The runtime takes the size for domains it spawns
   only from OCAMLRUNPARAM, so main.exe sets it there and re-executes
   itself. *)
let minor_heap_words = 1 lsl 20
let minor_heap_param = "s=1M"

let ensure_minor_heap () =
  if (Gc.get ()).minor_heap_size <> minor_heap_words then begin
    let prev = Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"" in
    if String.ends_with ~suffix:minor_heap_param prev then begin
      prerr_endline "perfbench: OCAMLRUNPARAM did not set the minor heap size";
      exit 2
    end;
    Unix.putenv "OCAMLRUNPARAM" (if prev = "" then minor_heap_param else prev ^ "," ^ minor_heap_param);
    Unix.execv Sys.executable_name Sys.argv
  end

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]\n\
    \       main.exe --spec   (print BENCHMARK.json)";
  prerr_endline ("  workloads: " ^ String.concat " " (List.map (fun (n, _, _) -> n) Spec.workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let rev = ref "unknown" and size_skew = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := (try int_of_string v with _ -> usage ()); parse rest
    | "--seconds" :: v :: rest -> seconds := (try float_of_string v with _ -> usage ()); parse rest
    | "--trace" :: v :: rest -> trace := (try int_of_string v with _ -> usage ()); parse rest
    | "--rev" :: v :: rest -> rev := v; parse rest
    | "--spec" :: _ -> print_endline (J.to_string (Spec.to_json ())); exit 0
    (* for the self-test: pretend the structure should hold N more keys *)
    | "--expect-size-skew" :: v :: rest -> size_skew := (try int_of_string v with _ -> usage ()); parse rest
    | [] -> ()
    | a :: _ -> prerr_endline ("unknown argument " ^ a); usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let wl =
    match List.find_opt (fun (n, _, _) -> n = !workload) Spec.workloads with
    | Some (_, k, _) -> k
    | None -> usage ()
  in
  if Build_info.profile <> "release" then begin
    prerr_endline ("perfbench: built with profile " ^ Build_info.profile ^ "; measure a release build");
    exit 2
  end;
  if not (Smr_core.Mem.checking ()) then (prerr_endline "perfbench: UAF detector is off"; exit 2);
  ensure_minor_heap ();
  Obs.Trace.set_clock Timed.now;
  let trace = !trace = 1 in
  let seed = !seed and seconds = !seconds and size_skew = !size_skew in
  let o =
    match wl with
    | Spec.Closed spec -> run_closed ~name:!workload spec ~seed ~seconds ~trace ~size_skew
    | Spec.Net -> run_net ~seed ~seconds ~trace ~size_skew
  in
  let correct = o.problems = [] in
  let shown =
    if trace then
      List.map
        (fun name ->
          match List.find_opt (fun x -> x.name = name) o.layers with
          | Some x -> x
          | None -> m name 0 0.0)
        (List.map (fun (n, _, _, _) -> n) Spec.per_layer)
    else o.e2e
  in
  List.iter
    (fun x ->
      Printf.printf "metric %-40s %.6g %s (n=%d)%s\n" x.name x.value x.unit x.samples
        (if trace then "  -> " ^ Spec.moves x.name else ""))
    shown;
  Printf.printf "failed_share %.6g (%d of %d)\n" (ratio o.failed o.attempted) o.failed o.attempted;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) o.problems;
  List.iter (fun w -> Printf.printf "WARNING: %s\n" w) o.warnings;
  let rounds, window = plan ~seconds ~trace in
  print_endline
    ("record "
    ^ J.to_string
        (record_json ~workload:!workload ~seed ~rev:!rev ~busy:o.busy ~rounds ~window o.extra));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int o.attempted);
            ("failed", J.Int o.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit) ]))
                   shown) );
          ]));
  exit (if correct then 0 else 1)
