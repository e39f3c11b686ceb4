(* smr-lint: allow R5 — internal benchmark-harness plumbing consumed only by bin/ and test/; the surface tracks the experiment set and changes too often for a separate interface to earn its keep *)
(** Configuration and results shared by all benchmark runs. *)

type cfg = {
  threads : int;
  duration : float; (* seconds per measurement *)
  key_range : int;
  workload : Workload.t;
  prefill_ratio : float; (* fraction of the key range inserted up front *)
}

type result = {
  ops : int;
  wall : float;
  throughput_mops : float;
  offered_rps : float;
      (* open-loop offered arrival rate; 0.0 for closed-loop runs, where
         there is no schedule independent of the system under test *)
  achieved_rps : float; (* completions per wall second *)
  peak_unreclaimed : int;
  avg_unreclaimed : float;
  peak_live : int;
  heavy_fences : int;
  protection_failures : int;
  allocated : int;
  freed : int;
  retired_total : int;
}

let throughput r = r.throughput_mops

type metric = result -> float

let metric_of_name : string -> metric = function
  | "throughput" -> fun r -> r.throughput_mops
  | "offered-rps" -> fun r -> r.offered_rps
  | "achieved-rps" -> fun r -> r.achieved_rps
  | "peak-unreclaimed" -> fun r -> float_of_int r.peak_unreclaimed
  | "avg-unreclaimed" -> fun r -> r.avg_unreclaimed
  | "peak-live" -> fun r -> float_of_int r.peak_live
  | "heavy-fences" -> fun r -> float_of_int r.heavy_fences
  | "protection-failures" -> fun r -> float_of_int r.protection_failures
  | "allocated" -> fun r -> float_of_int r.allocated
  | "freed" -> fun r -> float_of_int r.freed
  | "retired-total" -> fun r -> float_of_int r.retired_total
  | s -> invalid_arg ("unknown metric: " ^ s)
