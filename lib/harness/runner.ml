(* smr-lint: allow R5 — internal benchmark-harness plumbing consumed only by bin/ and test/; the surface tracks the experiment set and changes too often for a separate interface to earn its keep *)
(** Generic timed workload runner: spawns worker domains plus one sampler
    domain that both times the run and samples the garbage backlog (the
    paper's peak/average unreclaimed-block metrics). *)

module Stats = Smr_core.Stats
module Rng = Smr_core.Rng
module Barrier = Smr_core.Domain_pool.Barrier
open Bench_types

(* The sampler domain shared by every run shape: waits on the same start
   barrier as the workers, samples the garbage backlog every 2ms for
   [duration] seconds, then flips [stop] and returns (wall time, average
   backlog). *)
let backlog_sampler ~stats ~barrier ~stop ~duration () =
  Barrier.wait barrier;
  let t0 = Unix.gettimeofday () in
  let samples = ref 0 and sum = ref 0.0 in
  while Unix.gettimeofday () -. t0 < duration do
    sum := !sum +. float_of_int (Stats.unreclaimed stats);
    incr samples;
    Unix.sleepf 0.002
  done;
  Atomic.set stop true;
  (Unix.gettimeofday () -. t0, !sum /. float_of_int (max 1 !samples))

let assemble_result ~ops ~wall ~avg_unreclaimed stats =
  {
    ops;
    wall;
    throughput_mops = float_of_int ops /. wall /. 1e6;
    offered_rps = 0.0;
    achieved_rps = (if wall > 0.0 then float_of_int ops /. wall else 0.0);
    peak_unreclaimed = Stats.peak_unreclaimed stats;
    avg_unreclaimed;
    peak_live = Stats.peak_live stats;
    heavy_fences = Stats.heavy_fences stats;
    protection_failures = Stats.protection_failures stats;
    allocated = Stats.allocated stats;
    freed = Stats.freed stats;
    retired_total = Stats.retired_total stats;
  }

(* Drives one structure, int-keyed and int-valued, under one scheme. *)
module Make
    (S : Smr.Smr_intf.S)
    (D : Smr_ds.Ds_intf.MAP with type scheme = S.t and type handle = S.handle) =
struct
  (* Insert a random half of the key range (paper: "pre-filled to 50%").
     Random order matters: the unbalanced trees (EFRBTree, NMTree) would
     degenerate to paths under sequential insertion. *)
  let prefill t handle ~key_range ~ratio =
    let lo = D.make_local handle in
    let keys = Array.init key_range Fun.id in
    let rng = Rng.create ~seed:0xabcdef in
    for i = key_range - 1 downto 1 do
      let j = Rng.below rng (i + 1) in
      let tmp = keys.(i) in
      keys.(i) <- keys.(j);
      keys.(j) <- tmp
    done;
    let count = int_of_float (float_of_int key_range *. ratio) in
    for i = 0 to count - 1 do
      ignore (D.insert t lo keys.(i) keys.(i))
    done;
    D.clear_local lo

  let run ?config (cfg : cfg) : result =
    let scheme = S.create ?config () in
    let stats = S.stats scheme in
    let t = D.create scheme in
    let setup = S.register scheme in
    prefill t setup ~key_range:cfg.key_range ~ratio:cfg.prefill_ratio;
    let stop = Atomic.make false in
    let barrier = Barrier.create (cfg.threads + 1) in
    let worker i () =
      let handle = S.register scheme in
      let lo = D.make_local handle in
      let rng = Rng.create ~seed:(0x5eed + (i * 7919)) in
      Barrier.wait barrier;
      let ops = ref 0 in
      while not (Atomic.get stop) do
        let key = Rng.below rng cfg.key_range in
        (match Workload.pick cfg.workload rng with
        | Workload.Insert -> ignore (D.insert t lo key key)
        | Workload.Delete -> ignore (D.remove t lo key)
        | Workload.Get -> ignore (D.get t lo key));
        incr ops
      done;
      D.clear_local lo;
      S.unregister handle;
      !ops
    in
    let workers = Array.init cfg.threads (fun i -> Domain.spawn (worker i)) in
    let sampler_d =
      Domain.spawn
        (backlog_sampler ~stats ~barrier ~stop ~duration:cfg.duration)
    in
    let ops = Array.fold_left (fun acc d -> acc + Domain.join d) 0 workers in
    let wall, avg_unreclaimed = Domain.join sampler_d in
    S.unregister setup;
    assemble_result ~ops ~wall ~avg_unreclaimed stats

  (* The paper's Figure 10 workload: half the threads run long get()
     operations over the whole (large) key range; the other half churn the
     head of the structure, driving heavy reclamation. Reported ops are the
     readers' only. *)
  let run_long_reads ?config ~writer_range (cfg : cfg) : result =
    let scheme = S.create ?config () in
    let stats = S.stats scheme in
    let t = D.create scheme in
    let setup = S.register scheme in
    prefill t setup ~key_range:cfg.key_range ~ratio:cfg.prefill_ratio;
    let stop = Atomic.make false in
    let readers = max 1 (cfg.threads / 2) in
    let writers = max 1 (cfg.threads - readers) in
    let barrier = Barrier.create (readers + writers + 1) in
    let reader i () =
      let handle = S.register scheme in
      let lo = D.make_local handle in
      let rng = Rng.create ~seed:(0xbeef + (i * 31337)) in
      Barrier.wait barrier;
      let ops = ref 0 in
      while not (Atomic.get stop) do
        ignore (D.get t lo (Rng.below rng cfg.key_range));
        incr ops
      done;
      D.clear_local lo;
      S.unregister handle;
      !ops
    in
    let writer i () =
      let handle = S.register scheme in
      let lo = D.make_local handle in
      let rng = Rng.create ~seed:(0xfeed + (i * 1009)) in
      Barrier.wait barrier;
      while not (Atomic.get stop) do
        let key = Rng.below rng writer_range in
        if Rng.below rng 2 = 0 then ignore (D.insert t lo key key)
        else ignore (D.remove t lo key)
      done;
      D.clear_local lo;
      S.unregister handle;
      0
    in
    let reader_ds = Array.init readers (fun i -> Domain.spawn (reader i)) in
    let writer_ds = Array.init writers (fun i -> Domain.spawn (writer i)) in
    let sampler_d =
      Domain.spawn
        (backlog_sampler ~stats ~barrier ~stop ~duration:cfg.duration)
    in
    let ops = Array.fold_left (fun acc d -> acc + Domain.join d) 0 reader_ds in
    Array.iter (fun d -> ignore (Domain.join d)) writer_ds;
    let wall, avg_unreclaimed = Domain.join sampler_d in
    S.unregister setup;
    assemble_result ~ops ~wall ~avg_unreclaimed stats
end
