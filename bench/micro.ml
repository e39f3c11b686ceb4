(* Bechamel micro-benchmarks for the per-operation costs the paper's Table 1
   describes qualitatively: protection, validation, retirement, frontier
   protection + invalidation (TryUnlink), and critical-section entry. *)

open Bechamel
open Toolkit
module Mem = Smr_core.Mem

let test_hp_protect =
  let t = Hp.create () in
  let h = Hp.register t in
  let g = Hp.guard h in
  let hdr = Mem.make (Hp.stats t) in
  Test.make ~name:"hp/protect+release"
    (Staged.stage (fun () ->
         Hp.protect g hdr;
         Hp.release g))

let test_hpp_protect =
  let t = Hp_plus.create () in
  let h = Hp_plus.register t in
  let g = Hp_plus.guard h in
  let hdr = Mem.make (Hp_plus.stats t) in
  Test.make ~name:"hp_plus/protect+release"
    (Staged.stage (fun () ->
         Hp_plus.protect g hdr;
         Hp_plus.release g))

(* One traversal per op: a single-domain HHSList [get] over 512 nodes,
   keys cycling so a walk averages ~256 protect/validate steps. Divide by
   the mean walk length to compare a step with the protect+release row. *)
let test_hpp_hhslist_get =
  let module L = Smr_ds.Hhslist.Make (Hp_plus) in
  let t = Hp_plus.create () in
  let l = L.create t in
  let lo = L.make_local (Hp_plus.register t) in
  for k = 0 to 511 do
    ignore (L.insert l lo k k)
  done;
  let next = ref 0 in
  Test.make ~name:"hp_plus/hhslist get (512 nodes)"
    (Staged.stage (fun () ->
         next := (!next + 1) land 511;
         ignore (L.get l lo !next)))

(* The same walk over a list built by random inserts and removes over 1024
   keys, stopped at 512 nodes: list order no longer follows allocation
   order, so a step's loads land where a churned workload's do. Gets cycle
   over all 1024 keys, half of them misses; a walk still averages ~256
   steps. *)
let test_hpp_hhslist_get_churned =
  let module L = Smr_ds.Hhslist.Make (Hp_plus) in
  let t = Hp_plus.create () in
  let l = L.create t in
  let lo = L.make_local (Hp_plus.register t) in
  let rng = Smr_core.Rng.create ~seed:11 in
  let size = ref 0 in
  let step ~grow =
    let k = Smr_core.Rng.below rng 1024 in
    if grow then (if L.insert l lo k k then incr size)
    else if L.remove l lo k then decr size
  in
  for _ = 1 to 65536 do
    step ~grow:(Smr_core.Rng.below rng 2 = 0)
  done;
  while !size <> 512 do
    step ~grow:(!size < 512)
  done;
  let next = ref 0 in
  Test.make ~name:"hp_plus/hhslist get (512 nodes, churned)"
    (Staged.stage (fun () ->
         next := (!next + 1) land 1023;
         ignore (L.get l lo !next)))

(* The trees' walk, one [get] per op over 1024 keys. Keys go in shuffled:
   in ascending order the unbalanced NMTree and EFRBTree would degenerate
   into a list. *)
let test_hpp_tree_get name ~insert ~get =
  let keys = Array.init 1024 Fun.id in
  let rng = Smr_core.Rng.create ~seed:7 in
  for i = 1023 downto 1 do
    let j = Smr_core.Rng.below rng (i + 1) in
    let k = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- k
  done;
  Array.iter (fun k -> ignore (insert k)) keys;
  let next = ref 0 in
  Test.make
    ~name:(Printf.sprintf "hp_plus/%s get (1024 keys)" name)
    (Staged.stage (fun () ->
         next := (!next + 1) land 1023;
         ignore (get !next)))

let test_hpp_nmtree_get =
  let module T = Smr_ds.Nmtree.Make (Hp_plus) in
  let t = Hp_plus.create () in
  let tree = T.create t in
  let lo = T.make_local (Hp_plus.register t) in
  test_hpp_tree_get "nmtree"
    ~insert:(fun k -> T.insert tree lo k k)
    ~get:(fun k -> T.get tree lo k)

let test_hpp_efrbtree_get =
  let module T = Smr_ds.Efrbtree.Make (Hp_plus) in
  let t = Hp_plus.create () in
  let tree = T.create t in
  let lo = T.make_local (Hp_plus.register t) in
  test_hpp_tree_get "efrbtree"
    ~insert:(fun k -> T.insert tree lo k k)
    ~get:(fun k -> T.get tree lo k)

let test_hpp_bonsai_get =
  let module T = Smr_ds.Bonsai.Make (Hp_plus) in
  let t = Hp_plus.create () in
  let tree = T.create t in
  let lo = T.make_local (Hp_plus.register t) in
  test_hpp_tree_get "bonsai"
    ~insert:(fun k -> T.insert tree lo k k)
    ~get:(fun k -> T.get tree lo k)

let test_ebr_crit =
  let t = Ebr.create () in
  let h = Ebr.register t in
  Test.make ~name:"ebr/crit_enter+exit"
    (Staged.stage (fun () ->
         Ebr.crit_enter h;
         Ebr.crit_exit h))

let test_pebr_crit =
  let t = Pebr.create () in
  let h = Pebr.register t in
  let g = Pebr.guard h in
  let hdr = Mem.make (Pebr.stats t) in
  Test.make ~name:"pebr/crit+shield"
    (Staged.stage (fun () ->
         Pebr.crit_enter h;
         Pebr.protect g hdr;
         ignore (Pebr.protection_valid h);
         Pebr.release g;
         Pebr.crit_exit h))

let test_retire scheme_name (module S : Smr.Smr_intf.S) =
  let t = S.create () in
  let h = S.register t in
  Test.make
    ~name:(scheme_name ^ "/retire(+amortized reclaim)")
    (Staged.stage (fun () -> S.retire h (Mem.make (S.stats t))))

let unlink_cycle config =
  let t = Hp_plus.create ~config () in
  let h = Hp_plus.register t in
  fun () ->
    let stats = Hp_plus.stats t in
    let frontier_hdr = Mem.make stats in
    let node = (Mem.make stats, Smr_core.Link.null ()) in
    ignore
      (Hp_plus.try_unlink h
         ~frontier:[ frontier_hdr ]
         ~do_unlink:(fun () -> Some [ node ])
         ~node_header:fst
         ~invalidate:
           (List.iter (fun (_, link) -> Smr_core.Link.mark_invalid link)));
    (* the frontier header itself is left live: it stands in for a
       neighbouring node owned by the structure *)
    ignore stats

let test_try_unlink_epoched =
  Test.make ~name:"hp_plus/try_unlink (alg5 epoched)"
    (Staged.stage (unlink_cycle Smr.Smr_intf.default_config))

let test_try_unlink_plain =
  Test.make ~name:"hp_plus/try_unlink (alg3 plain)"
    (Staged.stage
       (unlink_cycle { Smr.Smr_intf.default_config with epoched_fence = false }))

(* The reclaimer's price per hazard snapshot: one membarrier. Measured on
   one domain, so it leaves out the interrupt every other running thread of
   the process pays. *)
let test_fence_heavy =
  let stats = Smr_core.Stats.create () in
  Test.make ~name:"fence/heavy (membarrier)"
    (Staged.stage (fun () -> Smr_core.Fence.heavy stats))

let test_rc_counts =
  let hdr = Mem.make (Smr_core.Stats.create ()) in
  Test.make ~name:"rc/incr_ref+decr"
    (Staged.stage (fun () ->
         Rc.incr_ref hdr;
         ignore (Mem.decr_ref hdr)))

let tests =
  Test.make_grouped ~name:"primitives" ~fmt:"%s %s"
    [
      test_hp_protect;
      test_hpp_protect;
      test_hpp_hhslist_get;
      test_hpp_hhslist_get_churned;
      test_hpp_nmtree_get;
      test_hpp_efrbtree_get;
      test_hpp_bonsai_get;
      test_fence_heavy;
      test_ebr_crit;
      test_pebr_crit;
      test_retire "hp" (module Hp);
      test_retire "hp_plus" (module Hp_plus);
      test_retire "ebr" (module Ebr);
      test_retire "pebr" (module Pebr);
      test_try_unlink_epoched;
      test_try_unlink_plain;
      test_rc_counts;
    ]

let run () =
  print_endline "== micro: per-operation primitive costs (bechamel)";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, ns) -> Printf.printf "%-45s %12.1f ns/op\n" name ns)
    (List.sort compare !rows);
  flush stdout
