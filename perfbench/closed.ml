(* Closed-loop in-process workloads: worker domains call a data structure
   directly, each issuing its next operation as soon as the previous one
   returns. The benchmark drives its own loop (not lib/harness's runner), so
   an edit to the harness cannot move these numbers.

   There is no polling sampler domain: on a 2-core box a 2 ms sampler domain
   cost single-worker HHSList/HP++ write-only throughput about a quarter
   (54-66k down to ~44.5k ops/s). Garbage is sampled by the workers
   themselves every [sample_every] operations instead. *)

type spec = {
  structure : [ `List | `Map ];
  keys : int;
  get_pct : int;
  insert_pct : int; (* the rest are removes *)
  workers : int;
  async : bool; (* reclaim on the background collector domain *)
}

let sample_every = 256
let kinds = [| "get"; "insert"; "remove" |]

type round = {
  setup_ns : int;
  window_s : float;
  cpu_s : float; (* process CPU time over the window *)
  workers : int;
  ops : int;
  lat : Hist.t array; (* per kind, wall ns of each data-structure call *)
  attempts : int array;
  successes : int array;
  wrong : int; (* a get that returned another key's value *)
  raised : string list; (* exceptions that escaped a worker *)
  garbage_peak : int;
  garbage_sum : int;
  garbage_samples : int;
  expected_size : int;
  size : int;
  reachable_ok : string option; (* [Some msg] when the sweep failed *)
  residue : int; (* unreclaimed blocks after teardown and a final flush *)
  allocated : int; (* during the window *)
  freed : int;
  heavy_fences : int;
  protection_failures : int;
  collector : Smr.Collector.stats option; (* at the end of the window *)
  occupancy_sum : int; (* collector ring, sampled with the garbage *)
  pass_age_max : int;
}

let now = Timed.now

(* Process CPU time, every domain together. The kernel leaves out time the
   host stole from the VM's vCPUs, so it counts only work the process got
   to do. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Operations per second of CPU the process was given, scaled to the
   worker count. Time the host steals from the vCPUs does not count: on a
   shared VM it comes in bursts and can cut wall throughput by more than
   half for minutes. On a calm host two workers get 1.8-1.95 CPU-seconds
   per wall second, so the figure reads 2-10% above wall throughput. CPU
   the collector domain spends counts against it. *)
let throughput r = float_of_int r.ops *. float_of_int r.workers /. r.cpu_s
let wall_throughput r = float_of_int r.ops /. r.window_s
let cpu_share r = r.cpu_s /. r.window_s

type worker_out = {
  w_lat : Hist.t array;
  w_att : int array;
  w_succ : int array;
  mutable w_wrong : int;
  mutable w_raised : string option;
  mutable w_gsum : int;
  mutable w_gn : int;
  mutable w_occ : int;
  mutable w_age : int;
  mutable w_end : int; (* when the last operation returned *)
}

module Make (S : Smr.Smr_intf.S) = struct
  module L = Smr_ds.Hhslist.Make (S)
  module M = Smr_ds.Hashmap.Make (S)
  module Stats = Smr_core.Stats

  (* One structure behind closures, so both run through one loop. *)
  type ops = {
    get : int -> int option;
    insert : int -> bool;
    remove : int -> bool;
    clear : unit -> unit;
  }

  type ds = { local : S.handle -> ops; size : unit -> int; check : unit -> unit }

  let make_ds spec scheme =
    match spec.structure with
    | `List ->
        let t = L.create scheme in
        {
          local =
            (fun h ->
              let l = L.make_local h in
              {
                get = (fun k -> L.get t l k);
                insert = (fun k -> L.insert t l k k);
                remove = (fun k -> L.remove t l k);
                clear = (fun () -> L.clear_local l);
              });
          size = (fun () -> L.size t);
          check = (fun () -> L.assert_reachable_not_freed t);
        }
    | `Map ->
        let t = M.create scheme in
        {
          local =
            (fun h ->
              let l = M.make_local h in
              {
                get = (fun k -> M.get t l k);
                insert = (fun k -> M.insert t l k k);
                remove = (fun k -> M.remove t l k);
                clear = (fun () -> M.clear_local l);
              });
          size = (fun () -> M.size t);
          check = (fun () -> M.assert_reachable_not_freed t);
        }

  (* Scheme, structure and prefill of half the key space: the set-up cost. *)
  let setup spec ~seed ~round =
    let config = { Smr.Smr_intf.default_config with async_reclaim = spec.async } in
    let scheme = S.create ~config () in
    let ds = make_ds spec scheme in
    let h = S.register scheme in
    let o = ds.local h in
    let keys = Prng.distinct_keys (Prng.derive seed round 0) ~keys:spec.keys (spec.keys / 2) in
    let prefilled = Array.fold_left (fun n k -> if o.insert k then n + 1 else n) 0 keys in
    o.clear ();
    S.unregister h;
    (scheme, ds, prefilled)

  (* [go] holds 0 until the window opens, then the time it closes. *)
  let worker spec scheme ds ~seed ~round ~index ~ready ~go ~sample_collector =
    let out =
      {
        w_lat = Array.init 3 (fun _ -> Hist.create ());
        w_att = Array.make 3 0;
        w_succ = Array.make 3 0;
        w_wrong = 0;
        w_raised = None;
        w_gsum = 0;
        w_gn = 0;
        w_occ = 0;
        w_age = 0;
        w_end = 0;
      }
    in
    let h = S.register scheme in
    let o = ds.local h in
    let rng = Prng.derive seed round (index + 1) in
    let stats = S.stats scheme in
    let split = spec.get_pct + spec.insert_pct in
    Atomic.incr ready;
    while Atomic.get go = 0 do
      Domain.cpu_relax ()
    done;
    let deadline = Atomic.get go in
    let t1 = ref 0 in
    (try
       let n = ref 0 in
       while !t1 < deadline do
         let r = Prng.below rng 100 in
         let k = Prng.below rng spec.keys in
         let kind = if r < spec.get_pct then 0 else if r < split then 1 else 2 in
         let t0 = now () in
         let ok =
           match kind with
           | 0 -> (
               match o.get k with
               | Some v ->
                   if v <> k then out.w_wrong <- out.w_wrong + 1;
                   true
               | None -> false)
           | 1 -> o.insert k
           | _ -> o.remove k
         in
         t1 := now ();
         Hist.record out.w_lat.(kind) (!t1 - t0);
         out.w_att.(kind) <- out.w_att.(kind) + 1;
         if ok then out.w_succ.(kind) <- out.w_succ.(kind) + 1;
         incr n;
         if !n land (sample_every - 1) = 0 then begin
           out.w_gsum <- out.w_gsum + Stats.unreclaimed stats;
           out.w_gn <- out.w_gn + 1;
           if sample_collector then
             match S.collector_stats scheme with
             | Some c ->
                 out.w_occ <- out.w_occ + c.Smr.Collector.ring_occupancy;
                 out.w_age <- max out.w_age c.Smr.Collector.pass_age
             | None -> ()
         end
       done
     with e -> out.w_raised <- Some (Printexc.to_string e));
    out.w_end <- !t1;
    o.clear ();
    S.unregister h;
    out

  (* One round: fresh set-up, [window] seconds of load, checks, teardown.
     [on_start]/[on_stop] run at quiescence just before the workers start
     and just after they have all been joined. *)
  let round ?(size_skew = 0) ?(sample_collector = false) ?(on_start = ignore)
      ?(on_stop = ignore) spec ~seed ~round ~window () =
    Gc.full_major ();
    let t0 = now () in
    let scheme, ds, prefilled = setup spec ~seed ~round in
    let setup_ns = now () - t0 in
    let stats = S.stats scheme in
    let alloc0 = Stats.allocated stats and freed0 = Stats.freed stats in
    let fences0 = Stats.heavy_fences stats in
    let pfail0 = Stats.protection_failures stats in
    let ready = Atomic.make 0 and go = Atomic.make 0 in
    on_start ();
    (* Every worker gets its own domain and the calling domain waits in
       [join]. Running worker 0 on the calling domain was tried: it cut
       list-churn's p99 (one domain fewer to stop for each minor
       collection) but widened the run-to-run spread of the async workload
       to 30-40%. *)
    let run index = worker spec scheme ds ~seed ~round ~index ~ready ~go ~sample_collector in
    let domains = List.init spec.workers (fun i -> Domain.spawn (fun () -> run i)) in
    while Atomic.get ready < spec.workers do
      Unix.sleepf 0.0005
    done;
    let w0 = now () in
    let c0 = cpu_s () in
    Atomic.set go (w0 + int_of_float (window *. 1e9));
    let outs = List.map Domain.join domains in
    let cpu_s = cpu_s () -. c0 in
    let window_s = float_of_int (List.fold_left (fun a o -> max a o.w_end) 0 outs - w0) /. 1e9 in
    on_stop ();
    let collector = S.collector_stats scheme in
    let sum f = List.fold_left (fun a o -> a + f o) 0 outs in
    let per_kind f = Array.init 3 (fun i -> sum (fun o -> (f o).(i))) in
    let successes = per_kind (fun o -> o.w_succ) in
    let garbage_peak = Stats.peak_unreclaimed stats in
    let allocated = Stats.allocated stats - alloc0 in
    let freed = Stats.freed stats - freed0 in
    let heavy_fences = Stats.heavy_fences stats - fences0 in
    let protection_failures = Stats.protection_failures stats - pfail0 in
    let expected_size = prefilled + successes.(1) - successes.(2) + size_skew in
    let size = ds.size () in
    let reachable_ok =
      match ds.check () with () -> None | exception e -> Some (Printexc.to_string e)
    in
    S.shutdown scheme;
    let h = S.register scheme in
    S.flush h;
    S.unregister h;
    {
      setup_ns;
      window_s;
      cpu_s;
      workers = spec.workers;
      ops = sum (fun o -> Array.fold_left ( + ) 0 o.w_att);
      lat = Array.init 3 (fun i -> Hist.merge (List.map (fun o -> o.w_lat.(i)) outs));
      attempts = per_kind (fun o -> o.w_att);
      successes;
      wrong = sum (fun o -> o.w_wrong);
      raised = List.filter_map (fun o -> o.w_raised) outs;
      garbage_peak;
      garbage_sum = sum (fun o -> o.w_gsum);
      garbage_samples = sum (fun o -> o.w_gn);
      expected_size;
      size;
      reachable_ok;
      residue = Stats.unreclaimed stats;
      allocated;
      freed;
      heavy_fences;
      protection_failures;
      collector;
      occupancy_sum = sum (fun o -> o.w_occ);
      pass_age_max = List.fold_left (fun a o -> max a o.w_age) 0 outs;
    }
end
