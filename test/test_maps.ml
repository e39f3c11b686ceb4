(* HashMap and SkipList across schemes, re-using the generic list suite
   (same map-like interface). *)

module Suite = Test_support.Suite
module Hashmap = Smr_ds.Hashmap
module Skiplist = Smr_ds.Skiplist

module Map_hp = Suite (Hp) (Hashmap.Make (Hp))
module Map_hpp = Suite (Hp_plus) (Hashmap.Make (Hp_plus))
module Map_ebr = Suite (Ebr) (Hashmap.Make (Ebr))
module Map_pebr = Suite (Pebr) (Hashmap.Make (Pebr))
module Map_rc = Suite (Rc) (Hashmap.Make (Rc))
module Map_nr = Suite (Nr) (Hashmap.Make (Nr))
module Sk_hp = Suite (Hp) (Skiplist.Make (Hp))
module Sk_hpp = Suite (Hp_plus) (Skiplist.Make (Hp_plus))
module Sk_ebr = Suite (Ebr) (Skiplist.Make (Ebr))
module Sk_pebr = Suite (Pebr) (Skiplist.Make (Pebr))
module Sk_rc = Suite (Rc) (Skiplist.Make (Rc))
module Sk_nr = Suite (Nr) (Skiplist.Make (Nr))

(* Skiplist-specific: towers taller than one level exercise the per-level
   unlink accounting; insert+remove cycles must drain completely. *)
let test_skiplist_tall_towers_drain () =
  let module Sk = Skiplist.Make (Hp_plus) in
  let scheme = Hp_plus.create () in
  let t = Sk.create scheme in
  let h = Hp_plus.register scheme in
  let lo = Sk.make_local h in
  for round = 1 to 20 do
    for k = 1 to 200 do
      assert (Sk.insert t lo k (k * round))
    done;
    for k = 1 to 200 do
      assert (Sk.remove t lo k)
    done;
    Alcotest.(check int) "empty between rounds" 0 (Sk.size t)
  done;
  Sk.clear_local lo;
  Hp_plus.flush h;
  Hp_plus.flush h;
  Alcotest.(check int) "all towers reclaimed" 0
    (Smr_core.Stats.unreclaimed (Hp_plus.stats scheme));
  Hp_plus.unregister h

let test_skiplist_order_iteration () =
  let module Sk = Skiplist.Make (Ebr) in
  let scheme = Ebr.create () in
  let t = Sk.create scheme in
  let h = Ebr.register scheme in
  let lo = Sk.make_local h in
  let keys = [ 42; 7; 19; 3; 88; 21; 64; 1 ] in
  List.iter (fun k -> assert (Sk.insert t lo k (k * 10))) keys;
  Alcotest.(check (list (pair int int)))
    "sorted iteration"
    (List.map (fun k -> (k, k * 10)) (List.sort compare keys))
    (Sk.to_list t);
  Sk.clear_local lo;
  Ebr.unregister h

let () =
  Alcotest.run "maps"
    [
      ("hashmap:HP", Map_hp.tests);
      ("hashmap:HP++", Map_hpp.tests);
      ("hashmap:EBR", Map_ebr.tests);
      ("hashmap:PEBR", Map_pebr.tests);
      ("hashmap:RC", Map_rc.tests);
      ("hashmap:NR", Map_nr.tests);
      ("skiplist:HP", Sk_hp.tests);
      ("skiplist:HP++", Sk_hpp.tests);
      ("skiplist:EBR", Sk_ebr.tests);
      ("skiplist:PEBR", Sk_pebr.tests);
      ("skiplist:RC", Sk_rc.tests);
      ("skiplist:NR", Sk_nr.tests);
      ( "skiplist extras",
        [
          Alcotest.test_case "tall towers drain" `Quick
            test_skiplist_tall_towers_drain;
          Alcotest.test_case "sorted iteration" `Quick
            test_skiplist_order_iteration;
        ] );
      ( "tight reclaim",
        [
          Alcotest.test_case "hashmap HP++ churn" `Quick
            Map_hpp.test_tight_churn;
          Alcotest.test_case "hashmap HP churn" `Quick
            Map_hp.test_tight_churn;
          Alcotest.test_case "skiplist HP++ churn" `Quick
            Sk_hpp.test_tight_churn;
        ] );
      ( "alloc per step",
        [
          Alcotest.test_case "hashmap get HP++" `Quick
            (Map_hpp.test_alloc_per_get ~size:16384 ~bound:19.);
          Alcotest.test_case "hashmap get EBR" `Quick
            (Map_ebr.test_alloc_per_get ~size:16384 ~bound:19.);
        ] );
    ]
