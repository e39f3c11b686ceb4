(* Contract and scenario tests for the reclamation schemes. *)

module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link

let cfg = Smr.Smr_intf.default_config

(* Generic contract every scheme must honour. [expect_free] is false for NR,
   which leaks by design. *)
module Contract (S : Smr.Smr_intf.S) = struct
  let expect_free = S.name <> "NR"

  let test_retire_then_flush () =
    let t = S.create () in
    let h = S.register t in
    let hdr = Mem.make (S.stats t) in
    S.retire h hdr;
    Alcotest.(check bool) "retired" true (Mem.is_retired hdr);
    S.flush h;
    Alcotest.(check bool) "freed after flush" expect_free (Mem.is_freed hdr);
    if expect_free then
      Alcotest.(check int) "unreclaimed drained" 0
        (Stats.unreclaimed (S.stats t));
    S.unregister h

  let test_try_unlink_success_and_failure () =
    let t = S.create () in
    let h = S.register t in
    let hdr = Mem.make (S.stats t) in
    let node = (hdr, Link.null ()) in
    let invalidated = ref false in
    let ok =
      S.try_unlink h ~frontier:[]
        ~do_unlink:(fun () -> Some [ node ])
        ~node_header:fst
        ~invalidate:(fun _ -> invalidated := true)
    in
    Alcotest.(check bool) "unlink reported" true ok;
    Alcotest.(check bool) "retired by unlink" true (Mem.is_retired hdr);
    let failed =
      S.try_unlink h ~frontier:[]
        ~do_unlink:(fun () -> None)
        ~node_header:fst
        ~invalidate:(fun _ -> ())
    in
    Alcotest.(check bool) "failed unlink reported" false failed;
    S.flush h;
    Alcotest.(check bool) "freed eventually" expect_free (Mem.is_freed hdr);
    S.unregister h

  let test_crit_and_guards_smoke () =
    let t = S.create () in
    let h = S.register t in
    S.crit_enter h;
    let g = S.guard h in
    let hdr = Mem.make (S.stats t) in
    S.protect g hdr;
    Alcotest.(check bool) "fresh handle valid" true (S.protection_valid h);
    S.release g;
    S.crit_refresh h;
    S.crit_exit h;
    S.unregister h

  let test_many_retires_bounded_or_drained () =
    let t = S.create () in
    let h = S.register t in
    for _ = 1 to 1000 do
      S.retire h (Mem.make (S.stats t))
    done;
    S.flush h;
    let remaining = Stats.unreclaimed (S.stats t) in
    if expect_free then Alcotest.(check int) "all drained" 0 remaining
    else Alcotest.(check int) "NR leaks all" 1000 remaining;
    S.unregister h

  let test_unregister_hands_over () =
    let t = S.create () in
    let h1 = S.register t in
    let hdr = Mem.make (S.stats t) in
    S.retire h1 hdr;
    S.unregister h1;
    (* another participant must be able to finish the job *)
    let h2 = S.register t in
    S.flush h2;
    S.flush h2;
    Alcotest.(check bool) "adopted and freed" expect_free (Mem.is_freed hdr);
    S.unregister h2

  (* The shared hazard pass keeps a guarded block however ripe it is, and
     frees it once the guard is released. *)
  let test_protection_blocks_free () =
    let t = S.create ~config:{ cfg with reclaim_threshold = 1 } () in
    let protector = S.register t in
    let reclaimer = S.register t in
    let hdr = Mem.make (S.stats t) in
    let g = S.guard protector in
    S.protect g hdr;
    S.retire reclaimer hdr;
    S.flush reclaimer;
    Alcotest.(check bool) "protected survives" false (Mem.is_freed hdr);
    S.release g;
    S.flush reclaimer;
    Alcotest.(check bool) "freed after release" true (Mem.is_freed hdr);
    S.unregister protector;
    S.unregister reclaimer

  let tests =
    [
      Alcotest.test_case "retire then flush" `Quick test_retire_then_flush;
      Alcotest.test_case "try_unlink" `Quick test_try_unlink_success_and_failure;
      Alcotest.test_case "crit/guards smoke" `Quick test_crit_and_guards_smoke;
      Alcotest.test_case "bulk retires" `Quick test_many_retires_bounded_or_drained;
      Alcotest.test_case "unregister handover" `Quick test_unregister_hands_over;
    ]
    @
    if S.needs_protection then
      [
        Alcotest.test_case "protection blocks free" `Quick
          test_protection_blocks_free;
      ]
    else []
end

module Contract_hp = Contract (Hp)
module Contract_hpp = Contract (Hp_plus)
module Contract_ebr = Contract (Ebr)
module Contract_pebr = Contract (Pebr)
module Contract_rc = Contract (Rc)
module Contract_nr = Contract (Nr)

(* --- HP specifics ------------------------------------------------------- *)

let test_hp_not_optimistic () =
  Alcotest.(check bool) "flag" false Hp.supports_optimistic;
  Alcotest.(check bool) "robust" true Hp.robust

(* --- HP++ specifics ----------------------------------------------------- *)

let make_node stats =
  (* A minimal "node": header plus a next link whose invalid bit stands in
     for the data structure's invalidation flag. *)
  let hdr = Mem.make stats in
  (hdr, Link.make (Tagged.make ~tag:0 ()))

let node_header (hdr, _) = hdr
let node_link (_, link) = link
let invalidate = List.iter (fun n -> Link.mark_invalid (node_link n))
let is_invalid n = Tagged.is_invalid (Link.get (node_link n))

let hpp_plain () =
  Hp_plus.create
    ~config:
      { cfg with epoched_fence = false; invalidate_threshold = 1000;
        reclaim_threshold = 1000 }
    ()

let test_hpp_invalidation_precedes_retirement () =
  let t = hpp_plain () in
  let h = Hp_plus.register t in
  let n = make_node (Hp_plus.stats t) in
  let ok =
    Hp_plus.try_unlink h ~frontier:[]
      ~do_unlink:(fun () -> Some [ n ])
      ~node_header ~invalidate
  in
  Alcotest.(check bool) "unlinked" true ok;
  Alcotest.(check bool) "not yet invalidated (deferred)" false (is_invalid n);
  Alcotest.(check int) "pending unlinked" 1 (Hp_plus.pending_unlinked h);
  (* A reclaim pass before invalidation must not free the node: it is not
     in the retired set yet. *)
  Hp_plus.reclaim h;
  Alcotest.(check bool) "unreclaimable before invalidation" false
    (Mem.is_freed (node_header n));
  Hp_plus.do_invalidation h;
  Alcotest.(check bool) "invalidated" true (is_invalid n);
  Alcotest.(check int) "moved to retireds" 1 (Hp_plus.pending_retired h);
  Hp_plus.reclaim h;
  Alcotest.(check bool) "freed after invalidation" true
    (Mem.is_freed (node_header n));
  Hp_plus.unregister h

(* §3.1 guarantee (2): the frontier is protected from before the unlink
   until after invalidation, so a concurrent deleter of the frontier node
   cannot free it meanwhile. *)
let test_hpp_frontier_protection () =
  let t = hpp_plain () in
  let unlinker = Hp_plus.register t in
  let deleter = Hp_plus.register t in
  let stats = Hp_plus.stats t in
  let chain = make_node stats in
  let frontier = make_node stats in
  let ok =
    Hp_plus.try_unlink unlinker
      ~frontier:[ node_header frontier ]
      ~do_unlink:(fun () -> Some [ chain ])
      ~node_header ~invalidate
  in
  Alcotest.(check bool) "unlinked" true ok;
  (* Another thread now unlinks and tries to reclaim the frontier node. *)
  Hp_plus.retire deleter (node_header frontier);
  Hp_plus.reclaim deleter;
  Alcotest.(check bool) "frontier survives while patch-up pending" false
    (Mem.is_freed (node_header frontier));
  (* After the unlinker's invalidation batch the protection is revoked. *)
  Hp_plus.do_invalidation unlinker;
  Hp_plus.reclaim deleter;
  Alcotest.(check bool) "frontier reclaimable afterwards" true
    (Mem.is_freed (node_header frontier));
  Hp_plus.unregister unlinker;
  Hp_plus.unregister deleter

(* §3.1 guarantee (1): all unlinked nodes are invalidated before any is
   freed — a traverser that protected q and then saw p uninvalidated can
   rely on q not having been freed. Scheme-level rendition: protect q after
   the unlink; q must survive reclamation. *)
let test_hpp_protect_after_unlink_survives () =
  let t = hpp_plain () in
  let unlinker = Hp_plus.register t in
  let traverser = Hp_plus.register t in
  let stats = Hp_plus.stats t in
  let p = make_node stats and q = make_node stats in
  ignore
    (Hp_plus.try_unlink unlinker ~frontier:[]
       ~do_unlink:(fun () -> Some [ p; q ])
       ~node_header ~invalidate);
  (* Traverser validates: p not invalidated yet => may protect q. *)
  Alcotest.(check bool) "p not invalidated yet" false (is_invalid p);
  let g = Hp_plus.guard traverser in
  Hp_plus.protect g (node_header q);
  (* Unlinker completes its cycle; q is protected and must survive. *)
  Hp_plus.do_invalidation unlinker;
  Hp_plus.reclaim unlinker;
  Alcotest.(check bool) "q survives" false (Mem.is_freed (node_header q));
  Alcotest.(check bool) "p freed" true (Mem.is_freed (node_header p));
  Hp_plus.release g;
  Hp_plus.reclaim unlinker;
  Alcotest.(check bool) "q freed after release" true
    (Mem.is_freed (node_header q));
  Hp_plus.unregister unlinker;
  Hp_plus.unregister traverser

let test_hpp_epoched_fence_piggyback () =
  let t =
    Hp_plus.create
      ~config:
        { cfg with epoched_fence = true; invalidate_threshold = 1;
          reclaim_threshold = 1000 }
      ()
  in
  let h = Hp_plus.register t in
  let stats = Hp_plus.stats t in
  let e0 = Hp_plus.fence_epoch t in
  (* Each unlink triggers DoInvalidation (threshold 1), which only reads the
     epoch; no heavy fence should be issued by invalidation itself. *)
  for _ = 1 to 5 do
    ignore
      (Hp_plus.try_unlink h
         ~frontier:[ Mem.make stats ]
         ~do_unlink:(fun () -> Some [ make_node stats ])
         ~node_header ~invalidate)
  done;
  Alcotest.(check int) "no heavy fence from DoInvalidation" e0
    (Hp_plus.fence_epoch t);
  (* Reclaim issues the heavy fence and releases the accumulated epoched
     hazard pointers. *)
  Hp_plus.reclaim h;
  Alcotest.(check int) "reclaim bumps fence epoch" (e0 + 1)
    (Hp_plus.fence_epoch t);
  Alcotest.(check bool) "heavy fences counted" true
    (Stats.heavy_fences stats >= 1);
  Hp_plus.unregister h

let test_hpp_backward_compatible_retire () =
  (* Classic HP-style retire works unchanged on HP++ (paper §4.2). *)
  let t = hpp_plain () in
  let h = Hp_plus.register t in
  let protector = Hp_plus.register t in
  let hdr = Mem.make (Hp_plus.stats t) in
  let g = Hp_plus.guard protector in
  Hp_plus.protect g hdr;
  Hp_plus.retire h hdr;
  Hp_plus.flush h;
  Alcotest.(check bool) "protected survives" false (Mem.is_freed hdr);
  Hp_plus.release g;
  Hp_plus.flush h;
  Alcotest.(check bool) "freed after release" true (Mem.is_freed hdr);
  Hp_plus.unregister h;
  Hp_plus.unregister protector

(* Paper §4.2 "Hybrid": one HP++ domain can serve a structure using classic
   HP-style retirement (HMList) and one using TryUnlink (HHSList) at the
   same time — Algorithm 3 extends rather than replaces the original. *)
let test_hpp_hybrid_usage () =
  let module Hm = Smr_ds.Hmlist.Make (Hp_plus) in
  let module Hhs = Smr_ds.Hhslist.Make (Hp_plus) in
  let t = Hp_plus.create () in
  let pessimistic = Hm.create t in
  let optimistic = Hhs.create t in
  let h = Hp_plus.register t in
  let lo_hm = Hm.make_local h in
  let lo_hhs = Hhs.make_local h in
  for k = 1 to 200 do
    assert (Hm.insert pessimistic lo_hm k k);
    assert (Hhs.insert optimistic lo_hhs k (k * 2))
  done;
  for k = 1 to 200 do
    if k mod 2 = 0 then begin
      assert (Hm.remove pessimistic lo_hm k);
      assert (Hhs.remove optimistic lo_hhs k)
    end
  done;
  Alcotest.(check int) "hm contents" 100 (Hm.size pessimistic);
  Alcotest.(check int) "hhs contents" 100 (Hhs.size optimistic);
  Hm.clear_local lo_hm;
  Hhs.clear_local lo_hhs;
  Hp_plus.flush h;
  Hp_plus.flush h;
  Alcotest.(check int) "shared domain drains both" 0
    (Stats.unreclaimed (Hp_plus.stats t));
  Hp_plus.unregister h

(* §4.4: a stalled participant holding protections bounds HP++'s garbage by
   what it actually protects — the robustness EBR lacks. *)
let test_hpp_robust_under_stall () =
  let t = Hp_plus.create ~config:{ cfg with reclaim_threshold = 16 } () in
  let staller = Hp_plus.register t in
  let worker = Hp_plus.register t in
  let g = Hp_plus.guard staller in
  let pinned = Mem.make (Hp_plus.stats t) in
  Hp_plus.protect g pinned;
  Hp_plus.retire worker pinned;
  for _ = 1 to 500 do
    Hp_plus.retire worker (Mem.make (Hp_plus.stats t))
  done;
  Hp_plus.flush worker;
  Alcotest.(check bool) "garbage bounded despite stalled protector" true
    (Stats.unreclaimed (Hp_plus.stats t) <= 32);
  Alcotest.(check bool) "the protected block is what survives" false
    (Mem.is_freed pinned);
  Hp_plus.release g;
  Hp_plus.flush worker;
  Alcotest.(check int) "fully drained after release" 0
    (Stats.unreclaimed (Hp_plus.stats t));
  Hp_plus.unregister staller;
  Hp_plus.unregister worker

(* --- EBR specifics ------------------------------------------------------ *)

let test_ebr_grace_period () =
  let t = Ebr.create () in
  let pinner = Ebr.register t in
  let reclaimer = Ebr.register t in
  Ebr.crit_enter pinner;
  let hdr = Mem.make (Ebr.stats t) in
  Ebr.retire reclaimer hdr;
  Ebr.flush reclaimer;
  Ebr.flush reclaimer;
  Alcotest.(check bool) "pinned epoch blocks reclamation" false
    (Mem.is_freed hdr);
  Ebr.crit_exit pinner;
  Ebr.flush reclaimer;
  Alcotest.(check bool) "freed after unpin" true (Mem.is_freed hdr);
  Ebr.unregister pinner;
  Ebr.unregister reclaimer

let test_ebr_not_robust () =
  (* A stalled critical section makes garbage grow without bound. *)
  Alcotest.(check bool) "flag" false Ebr.robust;
  let t = Ebr.create ~config:{ cfg with reclaim_threshold = 8 } () in
  let staller = Ebr.register t in
  let worker = Ebr.register t in
  Ebr.crit_enter staller;
  (* give the staller's pin one epoch of slack, then stall *)
  for _ = 1 to 500 do
    Ebr.retire worker (Mem.make (Ebr.stats t))
  done;
  Ebr.flush worker;
  Alcotest.(check bool) "garbage accumulates"
    true
    (Stats.unreclaimed (Ebr.stats t) >= 498);
  Ebr.crit_exit staller;
  Ebr.flush worker;
  Alcotest.(check int) "drains once unpinned" 0
    (Stats.unreclaimed (Ebr.stats t));
  Ebr.unregister staller;
  Ebr.unregister worker

let test_ebr_defer_runs_once () =
  let t = Ebr.create () in
  let h = Ebr.register t in
  let count = ref 0 in
  Ebr.defer h (fun () -> incr count);
  Ebr.flush h;
  Alcotest.(check int) "thunk ran once" 1 !count;
  Ebr.flush h;
  Alcotest.(check int) "not re-run" 1 !count;
  Ebr.unregister h

(* --- PEBR specifics ----------------------------------------------------- *)

let test_pebr_neutralization_unblocks_reclamation () =
  let t = Pebr.create ~config:{ cfg with reclaim_threshold = 4 } () in
  let straggler = Pebr.register t in
  let worker = Pebr.register t in
  Pebr.crit_enter straggler;
  Alcotest.(check bool) "valid at first" true (Pebr.protection_valid straggler);
  for _ = 1 to 200 do
    Pebr.retire worker (Mem.make (Pebr.stats t))
  done;
  Pebr.flush worker;
  Alcotest.(check bool) "straggler neutralized" true (Pebr.neutralized straggler);
  Alcotest.(check bool) "protection invalidated" false
    (Pebr.protection_valid straggler);
  Alcotest.(check bool) "garbage bounded despite straggler" true
    (Stats.unreclaimed (Pebr.stats t) < 100);
  (* the straggler recovers by refreshing its critical section *)
  Pebr.crit_refresh straggler;
  Alcotest.(check bool) "valid after refresh" true
    (Pebr.protection_valid straggler);
  Pebr.crit_exit straggler;
  Pebr.unregister straggler;
  Pebr.unregister worker

let test_pebr_shield_survives_neutralization () =
  let t = Pebr.create ~config:{ cfg with reclaim_threshold = 4 } () in
  let straggler = Pebr.register t in
  let worker = Pebr.register t in
  Pebr.crit_enter straggler;
  let hdr = Mem.make (Pebr.stats t) in
  let g = Pebr.guard straggler in
  Pebr.protect g hdr;
  Pebr.retire worker hdr;
  for _ = 1 to 200 do
    Pebr.retire worker (Mem.make (Pebr.stats t))
  done;
  Pebr.flush worker;
  Alcotest.(check bool) "neutralized" true (Pebr.neutralized straggler);
  Alcotest.(check bool) "shielded block survives ejection" false
    (Mem.is_freed hdr);
  Pebr.release g;
  Pebr.flush worker;
  Alcotest.(check bool) "freed after shield release" true (Mem.is_freed hdr);
  Pebr.crit_exit straggler;
  Pebr.unregister straggler;
  Pebr.unregister worker

(* --- RC specifics ------------------------------------------------------- *)

let test_rc_shared_child_cascade () =
  let t = Rc.create () in
  let h = Rc.register t in
  let stats = Rc.stats t in
  let child = Mem.make stats in
  let parent1 = Mem.make stats in
  let parent2 = Mem.make stats in
  (* Two parents link the child: one birth reference + one incr_ref. *)
  Rc.incr_ref child;
  Rc.retire_with_children h parent1 ~children:(fun () -> [ child ]);
  Rc.flush h;
  Alcotest.(check bool) "parent1 destroyed" true (Mem.is_freed parent1);
  Alcotest.(check bool) "child kept by second reference" false
    (Mem.is_freed child);
  Rc.retire_with_children h parent2 ~children:(fun () -> [ child ]);
  Rc.flush h;
  Alcotest.(check bool) "parent2 destroyed" true (Mem.is_freed parent2);
  Alcotest.(check bool) "child cascaded" true (Mem.is_freed child);
  Rc.unregister h

(* --- NR specifics ------------------------------------------------------- *)

(* --- Slot registry: chunk retirement/reuse and the sorted hazard scan --- *)

module Slots = Smr.Slots

(* Regression for the registry leak: unregister must park chunks for reuse
   so handle churn (shardkv sessions coming and going) keeps the registry —
   and therefore every future hazard scan — bounded. *)
let test_slots_registry_bounded () =
  let reg = Slots.create () in
  let stats = Stats.create () in
  let baseline = ref 0 in
  for i = 1 to 100 do
    let l = Slots.register reg in
    let s = Slots.acquire l in
    Slots.set s (Mem.make stats);
    Slots.release l s;
    Slots.unregister l;
    if i = 1 then baseline := Slots.total_slots reg
  done;
  Alcotest.(check int) "registry reuses parked chunks" !baseline
    (Slots.total_slots reg);
  (* Concurrent churn from several domains stays bounded too: at most one
     chunk per simultaneously live handle (plus the sequential baseline). *)
  ignore
    (Smr_core.Domain_pool.run ~n:4 (fun _ ->
         for _ = 1 to 50 do
           let l = Slots.register reg in
           Slots.unregister l
         done));
  Alcotest.(check bool) "bounded under concurrent churn" true
    (Slots.total_slots reg <= !baseline + (4 * 64))

let test_slots_scan_skips_parked () =
  let reg = Slots.create () in
  let stats = Stats.create () in
  let l1 = Slots.register reg in
  let l2 = Slots.register reg in
  let h1 = Mem.make stats and h2 = Mem.make stats in
  let s1 = Slots.acquire l1 in
  Slots.set s1 h1;
  let s2 = Slots.acquire l2 in
  Slots.set s2 h2;
  let scan = Slots.scan_create () in
  Slots.scan_snapshot reg scan;
  Alcotest.(check int) "two protections captured" 2 (Slots.scan_size scan);
  Alcotest.(check bool) "h1 member" true (Slots.scan_mem scan (Mem.uid h1));
  Alcotest.(check bool) "h2 member" true (Slots.scan_mem scan (Mem.uid h2));
  Alcotest.(check bool) "unknown uid is not a member" false
    (Slots.scan_mem scan (Mem.uid h1 + Mem.uid h2 + 1));
  Slots.release l2 s2;
  Slots.unregister l2;
  Slots.scan_snapshot reg scan;
  Alcotest.(check int) "parked chunk no longer scanned" 1
    (Slots.scan_size scan);
  Alcotest.(check bool) "h1 still member" true
    (Slots.scan_mem scan (Mem.uid h1));
  Alcotest.(check bool) "h2 gone" false (Slots.scan_mem scan (Mem.uid h2));
  Slots.release l1 s1;
  Slots.unregister l1

(* Enough slots to spill into several chunks and drive the quicksort path
   of the scan buffer. *)
let test_slots_scan_many () =
  let reg = Slots.create () in
  let stats = Stats.create () in
  let l = Slots.register reg in
  let hdrs = List.init 200 (fun _ -> Mem.make stats) in
  List.iter
    (fun h ->
      let s = Slots.acquire l in
      Slots.set s h)
    hdrs;
  let scan = Slots.scan_create () in
  Slots.scan_snapshot reg scan;
  Alcotest.(check int) "all protections captured" 200 (Slots.scan_size scan);
  List.iter
    (fun h ->
      if not (Slots.scan_mem scan (Mem.uid h)) then
        Alcotest.failf "uid %d missing from scan" (Mem.uid h))
    hdrs;
  Slots.unregister l;
  Slots.scan_snapshot reg scan;
  Alcotest.(check int) "empty after unregister" 0 (Slots.scan_size scan)

let test_nr_leaks () =
  let t = Nr.create () in
  let h = Nr.register t in
  let hdr = Mem.make (Nr.stats t) in
  Nr.retire h hdr;
  Nr.flush h;
  Alcotest.(check bool) "never freed" false (Mem.is_freed hdr);
  Alcotest.(check int) "counted as garbage" 1 (Stats.unreclaimed (Nr.stats t));
  Nr.unregister h

(* The table's reclaim probe: every scheme frees an unprotected retired
   block after a few flushes, except NR, which never frees. *)
let test_reclaim_probe () =
  Alcotest.(check (list string))
    "schemes that reclaim"
    [ "EBR"; "PEBR"; "HP"; "HP++"; "RC" ]
    (List.map fst (Schemes.reclaiming ()))

let () =
  Alcotest.run "schemes"
    [
      ( "table",
        [ Alcotest.test_case "reclaim probe" `Quick test_reclaim_probe ] );
      ("contract:HP", Contract_hp.tests);
      ("contract:HP++", Contract_hpp.tests);
      ("contract:EBR", Contract_ebr.tests);
      ("contract:PEBR", Contract_pebr.tests);
      ("contract:RC", Contract_rc.tests);
      ("contract:NR", Contract_nr.tests);
      ( "hp",
        [
          Alcotest.test_case "capability flags" `Quick test_hp_not_optimistic;
        ] );
      ( "hp_plus",
        [
          Alcotest.test_case "invalidation precedes retirement" `Quick
            test_hpp_invalidation_precedes_retirement;
          Alcotest.test_case "frontier protection" `Quick
            test_hpp_frontier_protection;
          Alcotest.test_case "protect after unlink survives" `Quick
            test_hpp_protect_after_unlink_survives;
          Alcotest.test_case "epoched fence piggyback" `Quick
            test_hpp_epoched_fence_piggyback;
          Alcotest.test_case "backward compatible retire" `Quick
            test_hpp_backward_compatible_retire;
          Alcotest.test_case "hybrid usage" `Quick test_hpp_hybrid_usage;
          Alcotest.test_case "robust under stall" `Quick
            test_hpp_robust_under_stall;
        ] );
      ( "ebr",
        [
          Alcotest.test_case "grace period" `Quick test_ebr_grace_period;
          Alcotest.test_case "not robust" `Quick test_ebr_not_robust;
          Alcotest.test_case "defer runs once" `Quick test_ebr_defer_runs_once;
        ] );
      ( "pebr",
        [
          Alcotest.test_case "neutralization unblocks" `Quick
            test_pebr_neutralization_unblocks_reclamation;
          Alcotest.test_case "shield survives ejection" `Quick
            test_pebr_shield_survives_neutralization;
        ] );
      ("rc", [ Alcotest.test_case "shared child cascade" `Quick test_rc_shared_child_cascade ]);
      ("nr", [ Alcotest.test_case "leaks by design" `Quick test_nr_leaks ]);
      ( "slots",
        [
          Alcotest.test_case "registry bounded under churn" `Quick
            test_slots_registry_bounded;
          Alcotest.test_case "scan skips parked chunks" `Quick
            test_slots_scan_skips_parked;
          Alcotest.test_case "scan across many chunks" `Quick
            test_slots_scan_many;
        ] );
    ]
