(* Chaos regression tests: seeded kills and stalls at SMR protocol points,
   crash recovery through report_crashed, and the fault layer's own
   mechanics. The fault plan is global, so every test resets it on entry —
   a failing assertion must not poison its successors. *)

module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Slots = Smr.Slots
module Pool = Smr_core.Domain_pool
module St = Service.Service_stats

let base = Smr.Smr_intf.default_config

(* Small thresholds so every protocol point is reached within a short
   churn: reclamation every 16 retires, invalidation every 4 unlinks. *)
let cfg = { base with reclaim_threshold = 16; invalidate_threshold = 4 }

(* --- the fault layer itself --------------------------------------------- *)

let test_fire_exactly_once () =
  Fault.reset ();
  let stats = Stats.create () in
  Fault.arm ~point:Fault.Retire ~action:Fault.Kill ~after:3 ();
  Alcotest.(check bool) "armed" true (Fault.enabled ());
  let survived = ref 0 in
  (try
     for _ = 1 to 10 do
       Mem.retire_mark stats (Mem.make stats);
       incr survived
     done
   with Fault.Killed p ->
     Alcotest.(check string) "killed at the armed point" "retire"
       (Fault.point_name p));
  Alcotest.(check int) "fired on the third hit" 2 !survived;
  Alcotest.(check bool) "fired" true (Fault.fired ());
  Alcotest.(check bool) "disarmed after firing" false (Fault.enabled ());
  Alcotest.(check bool) "victim domain recorded" true
    (Fault.victim_dom () <> None);
  (* a spent plan never fires again *)
  Mem.retire_mark stats (Mem.make stats);
  Fault.reset ()

let test_seeded_plans_deterministic () =
  Fault.reset ();
  let p1 = Fault.arm_seeded ~seed:42 ~points:Fault.all_points () in
  Fault.reset ();
  let p2 = Fault.arm_seeded ~seed:42 ~points:Fault.all_points () in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check bool) "after in 1..400" true
    (p1.Fault.after >= 1 && p1.Fault.after <= 400);
  let varied =
    List.exists
      (fun seed ->
        Fault.reset ();
        Fault.arm_seeded ~seed ~points:Fault.all_points () <> p1)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check bool) "plans vary across seeds" true varied;
  Fault.reset ()

(* --- kill matrix: one structure per scheme, every reachable point ------- *)

module Kill_matrix
    (S : Smr.Smr_intf.S)
    (L : Smr_ds.Ds_intf.MAP with type scheme = S.t and type handle = S.handle) =
struct
  let keys = 240

  (* Churn the list until the armed plan kills the victim, then hand the
     dead handle to a survivor and drive the system to quiescence. The
     victim's handle and traversal guards are abandoned exactly as a
     crashed domain would leave them: no clear_local, no unregister. *)
  let kill_at point after () =
    Fault.reset ();
    let t = S.create ~config:cfg () in
    let l = L.create t in
    let victim = S.register t in
    let lo = L.make_local victim in
    for k = 0 to keys - 1 do
      ignore (L.insert l lo k k)
    done;
    Fault.arm ~point ~action:Fault.Kill ~after ();
    let killed = ref false in
    (try
       for round = 0 to 99 do
         for k = 0 to keys - 1 do
           ignore (L.remove l lo k);
           ignore (L.insert l lo k (k + round))
         done
       done
     with Fault.Killed p ->
       killed := true;
       Alcotest.(check string) "killed at the armed point"
         (Fault.point_name point) (Fault.point_name p));
    if not !killed then
      Alcotest.failf "plan at %s never fired" (Fault.point_name point);
    let survivor = S.register t in
    let lo2 = L.make_local survivor in
    S.report_crashed victim;
    for k = 0 to keys - 1 do
      ignore (L.remove l lo2 k);
      ignore (L.get l lo2 k)
    done;
    (* no node the survivor can still reach was freed out from under it *)
    L.assert_reachable_not_freed l;
    L.clear_local lo2;
    S.flush survivor;
    S.flush survivor;
    S.flush survivor;
    (* A kill inside try_unlink's per-header loop can strand headers that
       were counted retired but never reached a bag, so recovery cannot
       drain to exactly zero — but the residue is bounded by one unlink
       batch, not by the churn. *)
    let leaked = Stats.unreclaimed (S.stats t) in
    if leaked > 16 then
      Alcotest.failf "%d unreclaimed blocks after recovery from a %s kill"
        leaked (Fault.point_name point);
    S.unregister survivor;
    Fault.reset ()

  let cases points =
    List.map
      (fun (point, after) ->
        Alcotest.test_case
          (Printf.sprintf "kill at %s (hit %d)" (Fault.point_name point) after)
          `Quick (kill_at point after))
      points
end

module Kill_hp = Kill_matrix (Hp) (Smr_ds.Hmlist.Make (Hp))
module Kill_hpp = Kill_matrix (Hp_plus) (Smr_ds.Hhslist.Make (Hp_plus))
module Kill_ebr = Kill_matrix (Ebr) (Smr_ds.Hhslist.Make (Ebr))
module Kill_pebr = Kill_matrix (Pebr) (Smr_ds.Hhslist.Make (Pebr))

(* --- robustness split under an unreported crash ------------------------- *)

(* The victim dies pinned inside a critical section and nobody has run
   report_crashed yet. EBR (robust = false) accumulates garbage in
   proportion to the churn; PEBR (robust = true) neutralizes the corpse
   under memory pressure and stays bounded. Reporting the crash must let
   both drain. *)
let crit_kill_churn (module S : Smr.Smr_intf.S) ~churn =
  Fault.reset ();
  let t = S.create ~config:{ base with reclaim_threshold = 8 } () in
  let victim = S.register t in
  Fault.arm ~point:Fault.Crit ~action:Fault.Kill ();
  (try S.crit_enter victim with Fault.Killed _ -> ());
  Alcotest.(check bool) "victim killed pinned" true (Fault.fired ());
  let worker = S.register t in
  for _ = 1 to churn do
    S.retire worker (Mem.make (S.stats t))
  done;
  S.flush worker;
  let unreported = Stats.unreclaimed (S.stats t) in
  S.report_crashed victim;
  S.flush worker;
  S.flush worker;
  let drained = Stats.unreclaimed (S.stats t) in
  S.unregister worker;
  Fault.reset ();
  (unreported, drained)

let test_ebr_unreported_crash_unbounded () =
  Alcotest.(check bool) "EBR declared non-robust" false Ebr.robust;
  let unreported, drained = crit_kill_churn (module Ebr) ~churn:2000 in
  if unreported < 1990 then
    Alcotest.failf "EBR freed %d blocks past a dead pinned participant"
      (2000 - unreported);
  Alcotest.(check int) "drains after report_crashed" 0 drained

let test_pebr_unreported_crash_bounded () =
  Alcotest.(check bool) "PEBR declared robust" true Pebr.robust;
  let unreported, drained = crit_kill_churn (module Pebr) ~churn:2000 in
  if unreported > 100 then
    Alcotest.failf "PEBR garbage %d not bounded by neutralization" unreported;
  Alcotest.(check int) "drains after report_crashed" 0 drained

(* --- stall: the paper's stalled-thread experiment in miniature ---------- *)

let test_stall_robustness_split () =
  (* EBR: a victim stalled inside a critical section pins the epoch, so a
     churning worker's garbage grows with the churn. *)
  Fault.reset ();
  let ebr_peak =
    let t = Ebr.create ~config:{ base with reclaim_threshold = 8 } () in
    Fault.arm ~point:Fault.Crit ~action:Fault.Stall ();
    let victim =
      Domain.spawn (fun () ->
          let h = Ebr.register t in
          Ebr.crit_enter h;
          (* parks in the hook pinned *)
          Ebr.crit_exit h;
          Ebr.unregister h)
    in
    Fault.await_stalled ();
    let worker = Ebr.register t in
    for _ = 1 to 2000 do
      Ebr.retire worker (Mem.make (Ebr.stats t))
    done;
    Ebr.flush worker;
    let peak = Stats.unreclaimed (Ebr.stats t) in
    Fault.release ();
    Domain.join victim;
    Ebr.flush worker;
    Ebr.flush worker;
    Alcotest.(check int) "EBR drains once the victim resumes" 0
      (Stats.unreclaimed (Ebr.stats t));
    Ebr.unregister worker;
    peak
  in
  Fault.reset ();
  (* HP++: the same stall holds one hazard slot mid-publication; only the
     block it names survives reclamation. *)
  let hpp_peak =
    let t = Hp_plus.create ~config:{ base with reclaim_threshold = 8 } () in
    let stats = Hp_plus.stats t in
    let pinned = Mem.make stats in
    Fault.arm ~point:Fault.Protect ~action:Fault.Stall ();
    let victim =
      Domain.spawn (fun () ->
          let h = Hp_plus.register t in
          let g = Hp_plus.guard h in
          Hp_plus.protect g pinned;
          (* parks in the hook, slot published *)
          Hp_plus.release g;
          Hp_plus.unregister h)
    in
    Fault.await_stalled ();
    let worker = Hp_plus.register t in
    Hp_plus.retire worker pinned;
    for _ = 1 to 2000 do
      Hp_plus.retire worker (Mem.make stats)
    done;
    Hp_plus.flush worker;
    let peak = Stats.unreclaimed stats in
    Alcotest.(check bool) "the protected block is what survives" false
      (Mem.is_freed pinned);
    Fault.release ();
    Domain.join victim;
    Hp_plus.flush worker;
    Alcotest.(check int) "HP++ drains fully after the victim resumes" 0
      (Stats.unreclaimed stats);
    Hp_plus.unregister worker;
    peak
  in
  Fault.reset ();
  Alcotest.(check bool) "HP++ peak bounded by a constant" true (hpp_peak <= 16);
  if ebr_peak < 10 * max 1 hpp_peak then
    Alcotest.failf "stall split collapsed: EBR peak %d vs HP++ peak %d"
      ebr_peak hpp_peak

(* --- slot registry reaping ---------------------------------------------- *)

let test_slots_reap_dead_handle () =
  Fault.reset ();
  let reg = Slots.create () in
  let stats = Stats.create () in
  let dead = Slots.register reg in
  let s = Slots.acquire dead in
  Slots.set s (Mem.make stats);
  let total = Slots.total_slots reg in
  let scan = Slots.scan_create () in
  Slots.scan_snapshot reg scan;
  Alcotest.(check int) "protection visible before reap" 1 (Slots.scan_size scan);
  Slots.reap dead;
  Slots.scan_snapshot reg scan;
  Alcotest.(check int) "withdrawn by reap" 0 (Slots.scan_size scan);
  (* the dead handle's chunks are parked for reuse, not leaked *)
  let fresh = Slots.register reg in
  Alcotest.(check int) "chunks reused, registry bounded" total
    (Slots.total_slots reg);
  Slots.unregister fresh

(* --- maybe_collect: no reclaim pass on an empty bag --------------------- *)

(* Regression: with invalidate_threshold > reclaim_threshold, the unlink
   counter alone used to trip a full reclaim pass (hazard snapshot, sort,
   heavy fence) every reclaim_threshold unlinks while every header was
   still parked in unlinkeds awaiting invalidation — the pass freed
   nothing. The pass is now gated on a non-empty retire bag. *)
let test_no_empty_bag_reclaim () =
  Fault.reset ();
  let t =
    Hp_plus.create
      ~config:
        { base with reclaim_threshold = 4; invalidate_threshold = 64;
          epoched_fence = true }
      ()
  in
  let h = Hp_plus.register t in
  let stats = Hp_plus.stats t in
  for _ = 1 to 20 do
    ignore
      (Hp_plus.try_unlink h ~frontier:[]
         ~do_unlink:(fun () -> Some [ Mem.make stats ])
         ~node_header:Fun.id
         ~invalidate:(fun _ -> ()))
  done;
  Alcotest.(check int) "no heavy fence while the bag is empty" 0
    (Stats.heavy_fences stats);
  Alcotest.(check int) "all 20 parked awaiting invalidation" 20
    (Hp_plus.pending_unlinked h);
  Hp_plus.flush h;
  Alcotest.(check int) "flush still drains everything" 0
    (Stats.unreclaimed stats);
  Hp_plus.unregister h

(* --- shardkv: session crash, reaping, degraded snapshot ----------------- *)

module KV = Service.Shardkv.Make (Hp_plus)

let test_shardkv_crash_reap_degraded () =
  Fault.reset ();
  let kv = KV.create ~shards:4 () in
  let per_worker = 200 in
  ignore
    (Pool.run ~n:3 (fun i ->
         for k = 0 to per_worker - 1 do
           ignore (KV.put kv ((i * 1000) + k) k)
         done;
         if i = 0 then KV.crash_session kv else KV.detach kv));
  let full = KV.snapshot kv ~elapsed:1.0 in
  Alcotest.(check int) "dead session visible" 1 full.St.dead_sessions;
  Alcotest.(check int) "full snapshot counts every session" (3 * per_worker)
    full.St.total_ops;
  let degraded = KV.snapshot ~degraded:true kv ~elapsed:1.0 in
  Alcotest.(check int) "degraded snapshot drops the victim's ops"
    (2 * per_worker) degraded.St.total_ops;
  Alcotest.(check int) "still one dead session" 1 degraded.St.dead_sessions;
  Alcotest.(check int) "one session reaped" 1 (KV.reap_dead kv);
  Alcotest.(check int) "reaping is idempotent" 0 (KV.reap_dead kv);
  ignore (KV.validate kv);
  KV.detach kv

let () =
  Alcotest.run "fault"
    [
      ( "layer",
        [
          Alcotest.test_case "plans fire exactly once" `Quick
            test_fire_exactly_once;
          Alcotest.test_case "seeded plans deterministic" `Quick
            test_seeded_plans_deterministic;
        ] );
      ( "kill:HP/HMList",
        Kill_hp.cases
          [ (Fault.Retire, 35); (Fault.Protect, 50); (Fault.Reclaim, 5) ] );
      ( "kill:HP++/HHSList",
        Kill_hpp.cases
          [
            (Fault.Retire, 35); (Fault.Protect, 50); (Fault.Unlink, 7);
            (Fault.Reclaim, 5);
          ] );
      ( "kill:EBR/HHSList",
        Kill_ebr.cases
          [ (Fault.Retire, 35); (Fault.Crit, 23); (Fault.Reclaim, 5) ] );
      ( "kill:PEBR/HHSList",
        Kill_pebr.cases
          [
            (Fault.Retire, 35); (Fault.Protect, 50); (Fault.Crit, 23);
            (Fault.Reclaim, 5);
          ] );
      ( "unreported",
        [
          Alcotest.test_case "EBR garbage unbounded until report" `Quick
            test_ebr_unreported_crash_unbounded;
          Alcotest.test_case "PEBR garbage bounded by neutralization" `Quick
            test_pebr_unreported_crash_bounded;
        ] );
      ( "stall",
        [
          Alcotest.test_case "EBR vs HP++ robustness split" `Quick
            test_stall_robustness_split;
        ] );
      ( "slots",
        [
          Alcotest.test_case "reap withdraws a dead handle" `Quick
            test_slots_reap_dead_handle;
        ] );
      ( "hp_plus",
        [
          Alcotest.test_case "no reclaim pass on an empty bag" `Quick
            test_no_empty_bag_reclaim;
        ] );
      ( "shardkv",
        [
          Alcotest.test_case "crash, reap, degraded snapshot" `Quick
            test_shardkv_crash_reap_degraded;
        ] );
    ]
