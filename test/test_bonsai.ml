(* Bonsai tree across all schemes, plus balance/snapshot specifics. *)

module Suite = Test_support.Suite
module Bonsai = Smr_ds.Bonsai
module Stats = Smr_core.Stats
module Pool = Smr_core.Domain_pool

module B_hp = Suite (Hp) (Bonsai.Make (Hp))
module B_hpp = Suite (Hp_plus) (Bonsai.Make (Hp_plus))
module B_ebr = Suite (Ebr) (Bonsai.Make (Ebr))
module B_pebr = Suite (Pebr) (Bonsai.Make (Pebr))
module B_rc = Suite (Rc) (Bonsai.Make (Rc))
module B_nr = Suite (Nr) (Bonsai.Make (Nr))

let test_balance_invariant () =
  let module B = Bonsai.Make (Ebr) in
  let scheme = Ebr.create () in
  let t = B.create scheme in
  let h = Ebr.register scheme in
  let lo = B.make_local h in
  (* ascending insertions are the classic rebalancing stress *)
  for k = 1 to 1000 do
    assert (B.insert t lo k k)
  done;
  B.assert_balanced t;
  for k = 1 to 1000 do
    if k mod 3 <> 0 then assert (B.remove t lo k)
  done;
  B.assert_balanced t;
  Alcotest.(check int) "remaining" 333 (B.size t);
  B.clear_local lo;
  Ebr.unregister h

(* RC on Bonsai must reclaim shared subtrees exactly once: churn then drain
   to zero live nodes. *)
let test_rc_drains_completely () =
  let module B = Bonsai.Make (Rc) in
  let scheme = Rc.create () in
  let t = B.create scheme in
  let h = Rc.register scheme in
  let lo = B.make_local h in
  for round = 1 to 10 do
    for k = 1 to 100 do
      assert (B.insert t lo k (k * round))
    done;
    for k = 1 to 100 do
      assert (B.remove t lo k)
    done
  done;
  Alcotest.(check int) "empty" 0 (B.size t);
  B.clear_local lo;
  Rc.flush h;
  Rc.flush h;
  Alcotest.(check int) "no live nodes leak" 0 (Stats.live (Rc.stats scheme));
  Rc.unregister h

(* An update attempt that restarts after copying part of its path (HP
   validates "the root has not moved") must discard the copies: every
   allocated node is then in the tree, retired, or discarded, so at
   quiescence live = size + unreclaimed. *)
let test_restarts_discard_copies () =
  let module B = Bonsai.Make (Hp) in
  let scheme = Hp.create () in
  let t = B.create scheme in
  ignore
    (Pool.run ~n:2 (fun i ->
         let h = Hp.register scheme in
         let lo = B.make_local h in
         let rng = Smr_core.Rng.create ~seed:(11 + i) in
         for _ = 1 to 20_000 do
           let key = Smr_core.Rng.below rng 32 in
           if Smr_core.Rng.below rng 2 = 0 then ignore (B.insert t lo key key)
           else ignore (B.remove t lo key)
         done;
         B.clear_local lo;
         Hp.unregister h));
  let stats = Hp.stats scheme in
  Alcotest.(check int) "no copy leaks"
    (B.size_quiescent t + Stats.unreclaimed stats)
    (Stats.live stats)

let test_snapshot_fold_consistent () =
  let module B = Bonsai.Make (Hp_plus) in
  let scheme = Hp_plus.create () in
  let t = B.create scheme in
  let h = Hp_plus.register scheme in
  let lo = B.make_local h in
  for k = 1 to 200 do
    assert (B.insert t lo k k)
  done;
  let sum = B.fold t lo ~init:0 ~f:(fun acc _ v -> acc + v) in
  Alcotest.(check int) "sum over snapshot" (200 * 201 / 2) sum;
  B.clear_local lo;
  Hp_plus.unregister h

(* Concurrent snapshot folds while writers churn: every fold must observe a
   consistent snapshot (sorted strictly increasing keys), and never trip the
   UAF detector. *)
let test_concurrent_snapshots () =
  let module B = Bonsai.Make (Hp_plus) in
  let scheme = Hp_plus.create () in
  let t = B.create scheme in
  let setup = Hp_plus.register scheme in
  let lo0 = B.make_local setup in
  for k = 0 to 63 do
    if k mod 2 = 0 then ignore (B.insert t lo0 k k)
  done;
  B.clear_local lo0;
  let _ =
    Pool.run_timed ~n:4 ~duration:0.3 (fun i ~stop ->
        let h = Hp_plus.register scheme in
        let lo = B.make_local h in
        let rng = Smr_core.Rng.create ~seed:(31 * (i + 1)) in
        while not (stop ()) do
          if i < 2 then begin
            (* writers *)
            let k = Smr_core.Rng.below rng 64 in
            if Smr_core.Rng.below rng 2 = 0 then ignore (B.insert t lo k k)
            else ignore (B.remove t lo k)
          end
          else begin
            (* snapshot readers *)
            let keys =
              B.fold t lo ~init:[] ~f:(fun acc k _ -> k :: acc)
            in
            let sorted_desc = List.sort (fun a b -> compare b a) keys in
            assert (keys = sorted_desc);
            assert (List.length (List.sort_uniq compare keys) = List.length keys)
          end
        done;
        B.clear_local lo;
        Hp_plus.unregister h)
  in
  B.assert_reachable_not_freed t;
  B.assert_balanced t;
  Hp_plus.unregister setup

(* Regression: the cross-batch variant of the paper's Figure 6 second
   scenario. A reader stands on an old node p (replaced by update U1 but not
   yet invalidated) while a later update U2 retires and reclaims p's shared
   child c. U1's frontier protection of c must keep it alive until U1's
   invalidation batch runs. *)
let test_cross_batch_frontier () =
  let module B = Bonsai.Make (Hp_plus) in
  let module Mem = Smr_core.Mem in
  let module Tagged = Smr_core.Tagged in
  let module Link = Smr_core.Link in
  let cfg =
    {
      Smr.Smr_intf.default_config with
      invalidate_threshold = 1_000_000;
      reclaim_threshold = 1_000_000;
      epoched_fence = false;
    }
  in
  let scheme = Hp_plus.create ~config:cfg () in
  let t = B.create scheme in
  let u1 = Hp_plus.register scheme in
  let u2 = Hp_plus.register scheme in
  let lo1 = B.make_local u1 in
  let lo2 = B.make_local u2 in
  (* balanced 3-node tree: root 2, children 1 and 3 *)
  assert (B.insert t lo1 2 2);
  assert (B.insert t lo1 1 1);
  assert (B.insert t lo1 3 3);
  let find_from root k =
    let rec go = function
      | None -> Alcotest.failf "key %d not found" k
      | Some n ->
          if n.B.key = k then n
          else if k < n.B.key then go n.B.left
          else go n.B.right
    in
    go root
  in
  (* drain the builder inserts' own batches first *)
  Hp_plus.flush u1;
  let old_root = B.root_of (Link.get_quiescent t.B.root) in
  let p = find_from old_root 2 in
  let c = find_from old_root 1 in
  (* U1 replaces the path root(2) -> 3 by inserting 4; child 1 is shared
     and becomes U1's frontier. *)
  assert (B.insert t lo1 4 4);
  Alcotest.(check bool) "p replaced but not yet invalidated" false
    (Atomic.get p.B.invalid);
  Alcotest.(check int) "U1 batch pending" 2 (Hp_plus.pending_unlinked u1);
  (* U2 removes 1: c retired in U2's batch and reclaimed hard. *)
  assert (B.remove t lo2 1);
  B.clear_local lo2;
  Hp_plus.do_invalidation u2;
  Hp_plus.reclaim u2;
  Alcotest.(check bool) "frontier protection keeps shared child alive" false
    (Mem.is_freed (Mem.of_node c));
  (* U1 finishes its batch: p invalidated, frontier released. *)
  B.clear_local lo1;
  Hp_plus.do_invalidation u1;
  Alcotest.(check bool) "p invalidated with its batch" true
    (Atomic.get p.B.invalid);
  Hp_plus.reclaim u2;
  Hp_plus.reclaim u1;
  Alcotest.(check bool) "shared child reclaimed afterwards" true
    (Mem.is_freed (Mem.of_node c));
  Hp_plus.unregister u1;
  Hp_plus.unregister u2

let () =
  Alcotest.run "bonsai"
    [
      ("bonsai:HP", B_hp.tests);
      ("bonsai:HP++", B_hpp.tests);
      ("bonsai:EBR", B_ebr.tests);
      ("bonsai:PEBR", B_pebr.tests);
      ("bonsai:RC", B_rc.tests);
      ("bonsai:NR", B_nr.tests);
      ( "alloc by depth",
        [
          Alcotest.test_case "get HP" `Quick B_hp.test_alloc_by_depth;
          Alcotest.test_case "get HP++" `Quick B_hpp.test_alloc_by_depth;
          Alcotest.test_case "get EBR" `Quick B_ebr.test_alloc_by_depth;
        ] );
      ( "bonsai extras",
        [
          Alcotest.test_case "balance invariant" `Quick test_balance_invariant;
          Alcotest.test_case "RC drains completely" `Quick
            test_rc_drains_completely;
          Alcotest.test_case "restarts discard their copies" `Quick
            test_restarts_discard_copies;
          Alcotest.test_case "snapshot fold" `Quick test_snapshot_fold_consistent;
          Alcotest.test_case "concurrent snapshots" `Slow
            test_concurrent_snapshots;
          Alcotest.test_case "cross-batch frontier protection" `Quick
            test_cross_batch_frontier;
        ] );
    ]
