(* Tree data structures across applicable schemes. *)

module Suite = Test_support.Suite
module Nmtree = Smr_ds.Nmtree
module Efrbtree = Smr_ds.Efrbtree

module Nm_hpp = Suite (Hp_plus) (Nmtree.Make (Hp_plus))
module Nm_ebr = Suite (Ebr) (Nmtree.Make (Ebr))
module Nm_pebr = Suite (Pebr) (Nmtree.Make (Pebr))
module Nm_rc = Suite (Rc) (Nmtree.Make (Rc))
module Nm_nr = Suite (Nr) (Nmtree.Make (Nr))

module Ef_hp = Suite (Hp) (Efrbtree.Make (Hp))
module Ef_hpp = Suite (Hp_plus) (Efrbtree.Make (Hp_plus))
module Ef_ebr = Suite (Ebr) (Efrbtree.Make (Ebr))
module Ef_pebr = Suite (Pebr) (Efrbtree.Make (Pebr))
module Ef_nr = Suite (Nr) (Efrbtree.Make (Nr))

let test_efrbtree_rejects_rc () =
  let module T = Efrbtree.Make (Rc) in
  let scheme = Rc.create () in
  match T.create scheme with
  | (_ : int T.t) -> Alcotest.fail "EFRBTree must reject RC"
  | exception Smr.Smr_intf.Unsupported_scheme _ -> ()

let test_nmtree_rejects_hp () =
  let module T = Nmtree.Make (Hp) in
  let scheme = Hp.create () in
  match T.create scheme with
  | (_ : int T.t) -> Alcotest.fail "NMTree must reject HP"
  | exception Smr.Smr_intf.Unsupported_scheme _ -> ()

let test_nmtree_key_bound () =
  let module T = Nmtree.Make (Ebr) in
  let scheme = Ebr.create () in
  let t = T.create scheme in
  let h = Ebr.register scheme in
  let lo = T.make_local h in
  Alcotest.check_raises "rejects sentinel keys"
    (Invalid_argument "Nmtree: key too large") (fun () ->
      ignore (T.insert t lo max_int 0));
  T.clear_local lo;
  Ebr.unregister h

(* Splicing a chain of pending deletions in one CAS is the NMTree behaviour
   HP++ exists for; drive deep towers of deletions sequentially. *)
let test_nmtree_bulk_delete_drains () =
  let module T = Nmtree.Make (Hp_plus) in
  let scheme = Hp_plus.create () in
  let t = T.create scheme in
  let h = Hp_plus.register scheme in
  let lo = T.make_local h in
  for k = 0 to 499 do
    assert (T.insert t lo k k)
  done;
  Alcotest.(check int) "filled" 500 (T.size t);
  for k = 0 to 499 do
    assert (T.remove t lo k)
  done;
  Alcotest.(check int) "emptied" 0 (T.size t);
  T.clear_local lo;
  Hp_plus.flush h;
  Hp_plus.flush h;
  Alcotest.(check int) "drained" 0
    (Smr_core.Stats.unreclaimed (Hp_plus.stats scheme));
  Hp_plus.unregister h

(* Two removers of sibling leaves: the second's flag CAS (staged here by
   hand) lands before the first tags it. The first's splice must move the
   flagged sibling up with its flag kept; dropping it resurrected the key
   and let an insert hang a live leaf where the pending delete would later
   splice it away (the owned-churn flake). *)
let test_nmtree_splice_keeps_sibling_flag () =
  let module T = Nmtree.Make (Hp_plus) in
  let scheme = Hp_plus.create () in
  let t = T.create scheme in
  let h = Hp_plus.register scheme in
  let lo = T.make_local h in
  assert (T.insert t lo 1 10);
  assert (T.insert t lo 2 20);
  (match T.seek t lo 2 with
  | `Done sr ->
      assert (
        Smr_core.Link.cas_clean sr.T.sr_parent_link sr.T.sr_parent_rec
          (Smr_core.Tagged.make ~tag:T.flag_bit sr.T.sr_leaf))
  | `Prot | `Retry -> Alcotest.fail "seek 2");
  Alcotest.(check bool) "remove the sibling" true (T.remove t lo 1);
  Alcotest.(check (option int)) "2 stays deleted" None (T.get t lo 2);
  Alcotest.(check bool) "insert 2 finishes the splice" true
    (T.insert t lo 2 21);
  Alcotest.(check (list (pair int int))) "contents" [ (2, 21) ] (T.to_list t);
  T.clear_local lo;
  Hp_plus.unregister h

let () =
  Alcotest.run "trees"
    [
      ("efrbtree:HP", Ef_hp.tests);
      ("efrbtree:HP++", Ef_hpp.tests);
      ("efrbtree:EBR", Ef_ebr.tests);
      ("efrbtree:PEBR", Ef_pebr.tests);
      ("efrbtree:NR", Ef_nr.tests);
      ( "efrbtree extras",
        [ Alcotest.test_case "rejects RC" `Quick test_efrbtree_rejects_rc ] );
      ("nmtree:HP++", Nm_hpp.tests);
      ("nmtree:EBR", Nm_ebr.tests);
      ("nmtree:PEBR", Nm_pebr.tests);
      ("nmtree:RC", Nm_rc.tests);
      ("nmtree:NR", Nm_nr.tests);
      ( "alloc by depth",
        [
          Alcotest.test_case "nmtree get HP++" `Quick Nm_hpp.test_alloc_by_depth;
          Alcotest.test_case "nmtree get EBR" `Quick Nm_ebr.test_alloc_by_depth;
          Alcotest.test_case "efrbtree get HP" `Quick Ef_hp.test_alloc_by_depth;
          Alcotest.test_case "efrbtree get HP++" `Quick
            Ef_hpp.test_alloc_by_depth;
          Alcotest.test_case "efrbtree get EBR" `Quick
            Ef_ebr.test_alloc_by_depth;
        ] );
      ( "nmtree extras",
        [
          Alcotest.test_case "rejects HP" `Quick test_nmtree_rejects_hp;
          Alcotest.test_case "key bound" `Quick test_nmtree_key_bound;
          Alcotest.test_case "bulk delete drains" `Quick
            test_nmtree_bulk_delete_drains;
          Alcotest.test_case "splice keeps a sibling's flag" `Quick
            test_nmtree_splice_keeps_sibling_flag;
        ] );
    ]
