(* Deterministic replays of the paper's use-after-free scenarios (Figures 5
   and 6) on a real Harris list, driven step by step through multiple
   handles from a single test thread.

   These tests reach into the list's internals (node links) to park the
   world in exactly the states the paper draws, then check that HP++'s two
   unlinker obligations — invalidate-all-before-freeing-any and
   protect-the-frontier — make the optimistic traversal safe, and that
   without them the access would have been a use-after-free. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module L = Smr_ds.Hhslist.Make (Hp_plus)
module C = Smr_ds.Ds_common.Make (Hp_plus)

let cfg =
  (* defer everything so the test controls invalidation/reclamation time *)
  {
    Smr.Smr_intf.default_config with
    invalidate_threshold = 1_000_000;
    reclaim_threshold = 1_000_000;
    epoched_fence = false;
  }

(* Build h -> 1 -> 2 -> 3 and return the three nodes. *)
let build_list scheme t lo =
  assert (L.insert t lo 1 "p");
  assert (L.insert t lo 2 "q");
  assert (L.insert t lo 3 "r");
  ignore scheme;
  let node k =
    let rec find tg =
      match Tagged.shape (Tagged.raw tg) with
      | Tagged.Null -> Alcotest.failf "node %d not found" k
      | Tagged.Ptr ->
          let n = Tagged.node tg in
          if n.L.key = k then n
          else find (Link.get_quiescent (Link.of_node n))
    in
    find (Link.get_quiescent t.L.head)
  in
  (node 1, node 2, node 3)

(* Logically delete a node in place: the stalled remover of the paper's
   figures, frozen after its mark CAS. *)
let mark n =
  let r = Link.get (Link.of_node n) in
  assert (Link.cas (Link.of_node n) r (Tagged.set_bits r Tagged.deleted_bit))

let is_invalid n = Tagged.is_invalid (Link.get (Link.of_node n))

(* Figure 6, first scenario + Figure 5: T1 stands on p (validated); T2
   unlinks the chain p,q at once and starts reclaiming. With the original
   HP, q could be freed and T1's step p->q would dereference freed memory
   (Figure 5b). With HP++, either q is still unreclaimed or p is already
   invalidated, so TryProtect refuses the step. *)
let test_scenario_one () =
  let scheme = Hp_plus.create ~config:cfg () in
  let t = L.create scheme in
  let t1 = Hp_plus.register scheme in
  let t2 = Hp_plus.register scheme in
  let lo2 = L.make_local t2 in
  let p, q, _r = build_list scheme t lo2 in
  (* T1 walks h->p and validates protection of p. *)
  let hp_prev = Hp_plus.guard t1 and hp_cur = Hp_plus.guard t1 in
  (let tg =
     Tagged.raw
       (C.try_protect ~src:Mem.phantom hp_cur t1
          ~src_link:t.L.head (Link.get t.L.head))
   in
   if not (Tagged.tag tg = 0 && Tagged.same_ptr tg (Tagged.make p)) then
     Alcotest.fail "protection of p must succeed");
  (* A stalled remover marked p and q; T2's traversal (any operation
     passing by) unlinks the whole chain with one CAS. *)
  mark p;
  mark q;
  assert (L.get t lo2 3 = Some "r");
  (* the wait-free get does not unlink; a search does: *)
  assert (L.remove t lo2 3);
  (* p,q unlinked by the search's TryUnlink, r by the remove's own. *)
  Alcotest.(check int) "chain awaiting invalidation" 3
    (Hp_plus.pending_unlinked t2);
  (* T2 reclaims as far as HP++ allows right now. *)
  Hp_plus.reclaim t2;
  (* Guarantee (1): nothing of the chain is freed before invalidation. *)
  Alcotest.(check bool) "q unreclaimable before invalidation" false
    (Mem.is_freed (Mem.of_node q));
  (* T1 now tries the optimistic step p -> q. p is not invalidated yet, so
     the step is allowed — and it is SAFE, because q is not freed. *)
  (let tg =
     Tagged.raw
       (C.try_protect ~src:(Mem.of_node p) hp_prev t1
          ~src_link:(Link.of_node p) (Link.get (Link.of_node p)))
   in
   if Tagged.is_invalid tg then Alcotest.fail "p is not invalidated yet";
   assert (Tagged.same_ptr tg (Tagged.make q));
   Mem.check_access (Mem.of_node q) (* would raise on a use-after-free *));
  (* T1 releases q and moves on; T2 completes its deferred invalidation. *)
  Hp_plus.release hp_prev;
  Hp_plus.release hp_cur;
  Hp_plus.do_invalidation t2;
  Alcotest.(check bool) "p invalidated" true (is_invalid p);
  Alcotest.(check bool) "q invalidated" true (is_invalid q);
  (* T2's own traversal guards still cover parts of the chain: drop them *)
  L.clear_local lo2;
  Hp_plus.reclaim t2;
  Alcotest.(check bool) "q freed after invalidation" true
    (Mem.is_freed (Mem.of_node q));
  (* Figure 5's unsafe access, had the traverser ignored invalidation: *)
  Alcotest.check_raises "naive HP step would be use-after-free"
    (Mem.Use_after_free (Mem.uid (Mem.of_node q))) (fun () ->
      Mem.check_access (Mem.of_node q));
  (* And the HP++ traverser is told to restart instead: *)
  (let tg =
     Tagged.raw
       (C.try_protect ~src:(Mem.of_node p) hp_cur t1
          ~src_link:(Link.of_node p) (Link.get (Link.of_node p)))
   in
   if not (Tagged.is_invalid tg) then
     Alcotest.fail "step from invalidated p must fail";
   Alcotest.(check bool) "a failed protect hands out no node" true
     (Tagged.is_null tg));
  Hp_plus.unregister t1;
  Hp_plus.unregister t2

(* Figure 6, second scenario: T1 has stepped through the unlinked chain all
   the way to the frontier r; T3 then deletes r. Guarantee (2) — the
   unlinker T2 protected r before unlinking — keeps r alive until T2's
   invalidation batch completes. *)
let test_scenario_two () =
  let scheme = Hp_plus.create ~config:cfg () in
  let t = L.create scheme in
  let t1 = Hp_plus.register scheme in
  let t2 = Hp_plus.register scheme in
  let t3 = Hp_plus.register scheme in
  let lo2 = L.make_local t2 in
  let lo3 = L.make_local t3 in
  let p, q, r = build_list scheme t lo2 in
  mark p;
  mark q;
  (* T2's search unlinks the chain p,q; its frontier protection of r is now
     pending until its DoInvalidation. *)
  assert (L.get t lo2 3 <> None);
  assert (
    match L.search_attempt t lo2 3 with
    | `Done (found, _, _, _) -> found
    | `Prot | `Retry -> false);
  Alcotest.(check int) "chain pending" 2 (Hp_plus.pending_unlinked t2);
  (* T1 (stale) walks p -> q -> r optimistically; every step validates
     against invalidation and succeeds because T2 has not invalidated. *)
  let g1 = Hp_plus.guard t1 and g2 = Hp_plus.guard t1 in
  (let tg =
     Tagged.raw
       (C.try_protect ~src:(Mem.of_node p) g1 t1
          ~src_link:(Link.of_node p) (Link.get (Link.of_node p)))
   in
   if Tagged.is_invalid tg then Alcotest.fail "q step";
   assert (Tagged.same_ptr tg (Tagged.make q)));
  (let tg =
     Tagged.raw
       (C.try_protect ~src:(Mem.of_node q) g2 t1
          ~src_link:(Link.of_node q) (Link.get (Link.of_node q)))
   in
   if Tagged.is_invalid tg then Alcotest.fail "r step";
   assert (Tagged.same_ptr tg (Tagged.make r)));
  (* T3 deletes r and reclaims hard. *)
  assert (L.remove t lo3 3);
  Hp_plus.do_invalidation t3;
  Hp_plus.reclaim t3;
  (* r survives: it is protected by T1's hazard pointers, by leftover
     traversal guards, and by T2's pending frontier protection. Release
     everything except the frontier slot to isolate guarantee (2): *)
  Mem.check_access (Mem.of_node r);
  Hp_plus.release g1;
  Hp_plus.release g2;
  L.clear_local lo2;
  L.clear_local lo3;
  Hp_plus.reclaim t3;
  Alcotest.(check bool) "frontier protection alone keeps r alive" false
    (Mem.is_freed (Mem.of_node r));
  (* Once T2 finishes its invalidation batch, its frontier protection is
     revoked and T3 may finally reclaim r. *)
  Hp_plus.do_invalidation t2;
  Hp_plus.reclaim t3;
  Alcotest.(check bool) "r reclaimed after T2's batch" true
    (Mem.is_freed (Mem.of_node r));
  Hp_plus.unregister t1;
  Hp_plus.unregister t2;
  Hp_plus.unregister t3

(* §4.4 robustness of Algorithm 5: epoched frontier hazard pointers are
   revoked by Reclaim even if no other thread fences. *)
let test_epoched_slots_bounded () =
  let config =
    {
      Smr.Smr_intf.default_config with
      epoched_fence = true;
      invalidate_threshold = 1;
      reclaim_threshold = 1_000_000;
    }
  in
  let scheme = Hp_plus.create ~config () in
  let t = L.create scheme in
  let h = Hp_plus.register scheme in
  let lo = L.make_local h in
  for k = 1 to 300 do
    assert (L.insert t lo k k)
  done;
  for k = 1 to 300 do
    assert (L.remove t lo k)
  done;
  (* every remove deferred a frontier slot under some fence epoch *)
  L.clear_local lo;
  Hp_plus.do_invalidation h;
  Hp_plus.reclaim h;
  Hp_plus.reclaim h;
  Alcotest.(check int) "everything drained by reclaim alone" 0
    (Smr_core.Stats.unreclaimed (Hp_plus.stats scheme));
  Hp_plus.unregister h

let () =
  Alcotest.run "scenarios"
    [
      ( "paper figures",
        [
          Alcotest.test_case "figure 5+6 first scenario" `Quick
            test_scenario_one;
          Alcotest.test_case "figure 6 second scenario" `Quick
            test_scenario_two;
          Alcotest.test_case "algorithm 5 slot revocation" `Quick
            test_epoched_slots_bounded;
        ] );
    ]
