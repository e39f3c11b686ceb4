(* smr-lint: allow R5 — internal benchmark-harness plumbing consumed only by bin/ and test/; the surface tracks the experiment set and changes too often for a separate interface to earn its keep *)
(** One entry point per table/figure of the paper (see DESIGN.md §4). *)

open Bench_types

type settings = {
  threads_list : int list;
  duration : float;
  paper_scale : bool;
      (* use the paper's key ranges (10K lists / 100K others) instead of
         container-sized ones *)
}

let big_range s cat =
  match cat with
  | `List -> if s.paper_scale then 10_000 else 1_024
  | `Other -> if s.paper_scale then 100_000 else 16_384

let small_range = function `List -> 16 | `Other -> 128

let run_instance s (i : Instances.instance) ~threads ~key_range ~workload =
  let r =
    (i.run
       {
         threads;
         duration = s.duration;
         key_range;
         workload;
         prefill_ratio = 0.5;
       } [@warning "-16"])
  in
  Results.add ~ds:i.ds ~scheme:i.scheme ~threads ~key_range
    ~workload:workload.Workload.name r;
  r

(* One data structure, thread rows, scheme columns. *)
let ds_sweep s ~ds ~workload ~key_range ~(metric : metric) =
  let columns = Schemes.names in
  let rows =
    List.map
      (fun threads ->
        ( string_of_int threads,
          List.map
            (fun scheme ->
              Instances.find ~ds ~scheme
              |> Option.map (fun i ->
                     metric (run_instance s i ~threads ~key_range ~workload)))
            columns ))
      s.threads_list
  in
  (columns, rows)

let sweep_tables s ~title_prefix ~workload ~(metric : metric) ~fmt =
  List.iter
    (fun ds ->
      let key_range = big_range s (Instances.category ds) in
      let columns, rows = ds_sweep s ~ds ~workload ~key_range ~metric in
      Report.table
        ~title:
          (Printf.sprintf "%s - %s (%s, key range %d)" title_prefix ds
             workload.Workload.name key_range)
        ~row_label:"threads" ~columns ~rows ~fmt)
    Instances.ds_order

(* --- Figures ------------------------------------------------------------ *)

let fig8 s =
  Report.note
    "Figure 8: throughput (Mops/s) of read-write workloads, big key range.";
  sweep_tables s ~title_prefix:"fig8 throughput"
    ~workload:Workload.read_write ~metric:throughput
    ~fmt:Report.fmt_throughput

let fig9 s =
  Report.note
    "Figure 9: best throughput per category, HP-compatible structure vs \
     HP++-only structure, small and big key ranges.";
  let best (i : Instances.instance) ~key_range =
    List.fold_left
      (fun acc threads ->
        let r =
          run_instance s i ~threads ~key_range ~workload:Workload.read_write
        in
        Float.max acc r.throughput_mops)
      0. s.threads_list
  in
  let cell ~ds ~scheme ~key_range =
    match Instances.find ~ds ~scheme with
    | None -> None
    | Some i -> Some (best i ~key_range)
  in
  let rows =
    [
      ( "list/small",
        [
          cell ~ds:"HMList" ~scheme:"HP" ~key_range:(small_range `List);
          cell ~ds:"HHSList" ~scheme:"HP++" ~key_range:(small_range `List);
        ] );
      ( "list/big",
        [
          cell ~ds:"HMList" ~scheme:"HP" ~key_range:(big_range s `List);
          cell ~ds:"HHSList" ~scheme:"HP++" ~key_range:(big_range s `List);
        ] );
      ( "tree/small",
        [
          cell ~ds:"EFRBTree" ~scheme:"HP" ~key_range:(small_range `Other);
          cell ~ds:"NMTree" ~scheme:"HP++" ~key_range:(small_range `Other);
        ] );
      ( "tree/big",
        [
          cell ~ds:"EFRBTree" ~scheme:"HP" ~key_range:(big_range s `Other);
          cell ~ds:"NMTree" ~scheme:"HP++" ~key_range:(big_range s `Other);
        ] );
    ]
  in
  Report.table ~title:"fig9 max throughput (Mops/s): HP vs HP++ structures"
    ~row_label:"category" ~columns:[ "HP(base DS)"; "HP++(opt DS)" ] ~rows
    ~fmt:Report.fmt_throughput

let fig10 s =
  Report.note
    "Figure 10: long-running reads (Mops/s of get) under head churn, \
     growing key range. HP runs HMList; the rest run HHSList.";
  let ranges =
    if s.paper_scale then [ 4096; 16384; 65536; 262144 ]
    else [ 1024; 4096; 16384; 65536 ]
  in
  let threads = max 2 (List.fold_left max 1 s.threads_list) in
  let cfg key_range =
    {
      threads;
      duration = s.duration;
      key_range;
      workload = Workload.read_write;
      prefill_ratio = 0.5;
    }
  in
  let columns = Schemes.names in
  let run_one scheme key_range =
    (* HHSList where the scheme supports it, HMList otherwise (HP). *)
    let i =
      match Instances.find ~ds:"HHSList" ~scheme with
      | Some i -> i
      | None -> Option.get (Instances.find ~ds:"HMList" ~scheme)
    in
    let r = i.run_long_reads ~writer_range:64 (cfg key_range) in
    Results.add ~ds:i.ds ~scheme ~threads ~key_range ~workload:"long-reads" r;
    r
  in
  let results =
    List.map
      (fun kr -> (kr, List.map (fun sch -> run_one sch kr) columns))
      ranges
  in
  Report.table ~title:"fig10 long-running read throughput (Mops/s)"
    ~row_label:"key range" ~columns
    ~rows:
      (List.map
         (fun (kr, rs) ->
           ( string_of_int kr,
             List.map (fun r -> Some r.throughput_mops) rs ))
         results)
    ~fmt:Report.fmt_throughput;
  Report.table
    ~title:
      "fig10 forced operation restarts (PEBR: neutralization; HP++:        invalidated source)"
    ~row_label:"key range" ~columns
    ~rows:
      (List.map
         (fun (kr, rs) ->
           ( string_of_int kr,
             List.map
               (fun r -> Some (float_of_int r.protection_failures))
               rs ))
         results)
    ~fmt:Report.fmt_count

let fig11 s =
  Report.note
    "Figure 11: peak retired-but-unreclaimed blocks, read-write workload. \
     (RC reported for completeness; the paper deems the metric ill-defined \
     for it.)";
  sweep_tables s ~title_prefix:"fig11 peak unreclaimed"
    ~workload:Workload.read_write
    ~metric:(fun r -> float_of_int r.peak_unreclaimed)
    ~fmt:Report.fmt_count

(* Appendix: three workloads x four metrics = figures 12-23. *)

let appendix_figure s ~fig ~workload ~metric ~fmt ~what =
  Report.note (Printf.sprintf "Figure %d: %s, %s workload." fig what
                 workload.Workload.name);
  sweep_tables s
    ~title_prefix:(Printf.sprintf "fig%d %s" fig what)
    ~workload ~metric ~fmt

let appendix_spec =
  [
    (12, Workload.write_only, "throughput (Mops/s)", `Throughput);
    (13, Workload.read_write, "throughput (Mops/s)", `Throughput);
    (14, Workload.read_most, "throughput (Mops/s)", `Throughput);
    (15, Workload.write_only, "peak unreclaimed blocks", `PeakUnreclaimed);
    (16, Workload.read_write, "peak unreclaimed blocks", `PeakUnreclaimed);
    (17, Workload.read_most, "peak unreclaimed blocks", `PeakUnreclaimed);
    (18, Workload.write_only, "peak live blocks (memory proxy)", `PeakLive);
    (19, Workload.read_write, "peak live blocks (memory proxy)", `PeakLive);
    (20, Workload.read_most, "peak live blocks (memory proxy)", `PeakLive);
    (21, Workload.write_only, "average unreclaimed blocks", `AvgUnreclaimed);
    (22, Workload.read_write, "average unreclaimed blocks", `AvgUnreclaimed);
    (23, Workload.read_most, "average unreclaimed blocks", `AvgUnreclaimed);
  ]

let appendix_fig s fig =
  let _, workload, what, kind =
    List.find (fun (f, _, _, _) -> f = fig) appendix_spec
  in
  let metric, fmt =
    match kind with
    | `Throughput -> (throughput, Report.fmt_throughput)
    | `PeakUnreclaimed ->
        ((fun r -> float_of_int r.peak_unreclaimed), Report.fmt_count)
    | `PeakLive -> ((fun r -> float_of_int r.peak_live), Report.fmt_count)
    | `AvgUnreclaimed -> ((fun r -> r.avg_unreclaimed), Report.fmt_count)
  in
  appendix_figure s ~fig ~workload ~metric ~fmt ~what

(* --- Tables -------------------------------------------------------------- *)

let tab1 _s =
  Report.heading "Table 1: robust & widely applicable schemes, qualitative";
  List.iter
    (fun (c : Smr.Registry.scheme_criteria) ->
      Printf.printf "%-6s| requires: %s\n      | fails on: %s; handling: %s\n      | overhead: %s\n      | unreclaimed: %s\n"
        c.scheme c.system_requirement c.failure_condition c.failure_handling
        c.overhead c.unreclaimed_bound)
    Smr.Registry.table1;
  flush stdout

let tab2 _s =
  Report.heading
    "Table 2: applicability (v supported, x not, ^ wait-freedom lost, \
     * custom recovery, ** restructuring)";
  Printf.printf "%-44s %-6s %-8s %-5s %-5s %-10s %s\n" "structure" "HP"
    "DEBRA+" "NBR" "EBR" "HP++/PEBR" "built here as";
  List.iter
    (fun (r : Smr.Registry.applicability_row) ->
      let p s = Fmt.str "%a" Smr.Registry.pp_support s in
      Printf.printf "%-44s %-6s %-8s %-5s %-5s %-10s %s\n" r.structure
        (p r.hp) (p r.debra_plus) (p r.nbr) (p r.ebr) (p r.hp_plus_class)
        (Option.value ~default:"-" r.implemented_as))
    Smr.Registry.table2;
  flush stdout

(* --- Ablation: Algorithm 3 vs Algorithm 5 -------------------------------- *)

let hhs_hpp = Option.get (Instances.find ~ds:"HHSList" ~scheme:"HP++")

let alg5 s =
  Report.note
    "Ablation: HP++ with per-batch fences (Algorithm 3) vs epoched heavy \
     fence (Algorithm 5) on HHSList, write-only workload.";
  let base = Smr.Smr_intf.default_config in
  let variants =
    [
      ("alg5-epoched", { base with epoched_fence = true });
      ("alg3-plain", { base with epoched_fence = false });
    ]
  in
  let key_range = big_range s `List in
  let results =
    List.map
      (fun threads ->
        ( threads,
          List.map
            (fun (variant, config) ->
              let r =
                hhs_hpp.run ~config
                  {
                    threads;
                    duration = s.duration;
                    key_range;
                    workload = Workload.write_only;
                    prefill_ratio = 0.5;
                  }
              in
              Results.add ~ds:"HHSList"
                ~scheme:("HP++/" ^ variant)
                ~threads ~key_range ~workload:"write-only" r;
              r)
            variants ))
      s.threads_list
  in
  let columns = List.map fst variants in
  Report.table ~title:"alg5 throughput (Mops/s)" ~row_label:"threads" ~columns
    ~rows:
      (List.map
         (fun (t, rs) ->
           ( string_of_int t,
             List.map (fun r -> Some r.throughput_mops) rs ))
         results)
    ~fmt:Report.fmt_throughput;
  Report.table ~title:"alg5 heavy fences issued" ~row_label:"threads" ~columns
    ~rows:
      (List.map
         (fun (t, rs) ->
           ( string_of_int t,
             List.map (fun r -> Some (float_of_int r.heavy_fences)) rs ))
         results)
    ~fmt:Report.fmt_count;
  Report.table ~title:"alg5 peak unreclaimed blocks" ~row_label:"threads"
    ~columns
    ~rows:
      (List.map
         (fun (t, rs) ->
           ( string_of_int t,
             List.map (fun r -> Some (float_of_int r.peak_unreclaimed)) rs ))
         results)
    ~fmt:Report.fmt_count

(* Ablation of the reclamation cadence (paper footnote 10: DoInvalidation
   per 32 TryUnlinks, Reclaim per 128 — "big enough to amortize ... small
   enough to bound"). *)
let thresholds s =
  Report.note
    "Ablation: HP++ DoInvalidation/Reclaim thresholds on HHSList,      write-only workload (paper footnote 10).";
  let threads = max 2 (List.fold_left max 1 s.threads_list) in
  let key_range = big_range s `List in
  let variants =
    [ (1, 8); (8, 32); (32, 128); (128, 512); (512, 2048) ]
  in
  let results =
    List.map
      (fun (inv, rec_) ->
        let config =
          {
            Smr.Smr_intf.default_config with
            invalidate_threshold = inv;
            reclaim_threshold = rec_;
          }
        in
        let name = Printf.sprintf "inv=%d/rec=%d" inv rec_ in
        let r =
          hhs_hpp.run ~config
            {
              threads;
              duration = s.duration;
              key_range;
              workload = Workload.write_only;
              prefill_ratio = 0.5;
            }
        in
        Results.add ~ds:"HHSList" ~scheme:("HP++/" ^ name) ~threads
          ~key_range ~workload:"write-only" r;
        (name, r))
      variants
  in
  Report.table ~title:"thresholds: throughput (Mops/s)" ~row_label:"config"
    ~columns:[ "throughput" ]
    ~rows:
      (List.map (fun (n, r) -> (n, [ Some r.throughput_mops ])) results)
    ~fmt:Report.fmt_throughput;
  Report.table ~title:"thresholds: peak unreclaimed / heavy fences"
    ~row_label:"config"
    ~columns:[ "peak-garbage"; "heavy-fences" ]
    ~rows:
      (List.map
         (fun (n, r) ->
           ( n,
             [
               Some (float_of_int r.peak_unreclaimed);
               Some (float_of_int r.heavy_fences);
             ] ))
         results)
    ~fmt:Report.fmt_count

(* --- Stalled-thread robustness (fault-injection layer) ------------------- *)

(* One domain is parked by a Fault.Stall plan while it holds its scheme's
   protection — pinned critical section for EBR/PEBR, published hazard slot
   for HP/HP++ — and the main domain churns removes against the structure,
   sampling retired-but-unreclaimed blocks at fixed op checkpoints. This is
   the mechanism behind the paper's Figure 11 split, isolated: EBR's curve
   tracks the churn, the robust schemes stay flat. *)
module Stalled
    (S : Smr.Smr_intf.S)
    (L : Smr_ds.Ds_intf.MAP with type scheme = S.t and type handle = S.handle) =
struct
  let run ~point ~checkpoints =
    Fault.reset ();
    let t = S.create () in
    let l = L.create t in
    let h = S.register t in
    let lo = L.make_local h in
    let range = 256 in
    for k = 0 to range - 1 do
      ignore (L.insert l lo k k)
    done;
    (* Armed only after the prefill so the victim, not the prefill loop,
       trips the plan; the main domain waits in await_stalled meanwhile. *)
    Fault.arm ~point ~action:Fault.Stall ~after:20 ();
    let stop = Atomic.make false in
    let victim =
      Domain.spawn (fun () ->
          let vh = S.register t in
          let vlo = L.make_local vh in
          while not (Atomic.get stop) do
            for k = 0 to range - 1 do
              ignore (L.get l vlo k)
            done
          done;
          L.clear_local vlo;
          S.unregister vh)
    in
    Fault.await_stalled ();
    let prev = ref 0 in
    let samples =
      List.map
        (fun cum ->
          for i = !prev to cum - 1 do
            let key = i mod range in
            ignore (L.remove l lo key);
            ignore (L.insert l lo key key)
          done;
          prev := cum;
          Smr_core.Stats.unreclaimed (S.stats t))
        checkpoints
    in
    Atomic.set stop true;
    Fault.release ();
    Domain.join victim;
    L.clear_local lo;
    S.flush h;
    S.flush h;
    S.flush h;
    let drained = Smr_core.Stats.unreclaimed (S.stats t) in
    S.unregister h;
    Fault.reset ();
    (samples, drained)
end

let stalled _s =
  Report.note
    "Stalled-thread robustness: a victim domain is parked by the fault \
     layer while holding its scheme's protection (pinned critical section \
     for EBR/PEBR, published hazard slot for HP/HP++); the main domain \
     churns removes and samples unreclaimed blocks per checkpoint.";
  let checkpoints = [ 1_000; 2_000; 4_000; 8_000; 16_000 ] in
  let module E = Stalled (Ebr) (Smr_ds.Hhslist.Make (Ebr)) in
  let ebr, ebr_d = E.run ~point:Fault.Crit ~checkpoints in
  let module P = Stalled (Pebr) (Smr_ds.Hhslist.Make (Pebr)) in
  let pebr, pebr_d = P.run ~point:Fault.Crit ~checkpoints in
  let module H = Stalled (Hp) (Smr_ds.Hmlist.Make (Hp)) in
  let hp, hp_d = H.run ~point:Fault.Protect ~checkpoints in
  let module HPP = Stalled (Hp_plus) (Smr_ds.Hhslist.Make (Hp_plus)) in
  let hpp, hpp_d = HPP.run ~point:Fault.Protect ~checkpoints in
  let columns = [ "EBR"; "PEBR"; "HP(HMList)"; "HP++" ] in
  let rows =
    List.mapi
      (fun i cum ->
        ( string_of_int cum,
          List.map
            (fun curve -> Some (float_of_int (List.nth curve i)))
            [ ebr; pebr; hp; hpp ] ))
      checkpoints
    @ [
        ( "after release",
          List.map
            (fun d -> Some (float_of_int d))
            [ ebr_d; pebr_d; hp_d; hpp_d ] );
      ]
  in
  Report.table
    ~title:"stalled: unreclaimed blocks vs churn under one stalled thread"
    ~row_label:"churn ops" ~columns ~rows ~fmt:Report.fmt_count

(* --- Dispatch ------------------------------------------------------------ *)

let known =
  [ "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15";
    "fig16"; "fig17"; "fig18"; "fig19"; "fig20"; "fig21"; "fig22"; "fig23";
    "tab1"; "tab2"; "alg5"; "thresholds"; "stalled" ]

let run s exp =
  Results.set_experiment exp;
  match exp with
  | "fig8" -> fig8 s
  | "fig9" -> fig9 s
  | "fig10" -> fig10 s
  | "fig11" -> fig11 s
  | "tab1" -> tab1 s
  | "tab2" -> tab2 s
  | "alg5" -> alg5 s
  | "thresholds" -> thresholds s
  | "stalled" -> stalled s
  | exp when String.length exp > 3 && String.sub exp 0 3 = "fig" -> (
      match int_of_string_opt (String.sub exp 3 (String.length exp - 3)) with
      | Some n when n >= 12 && n <= 23 -> appendix_fig s n
      | _ -> invalid_arg ("unknown experiment: " ^ exp))
  | exp -> invalid_arg ("unknown experiment: " ^ exp)
