(* smr-lint: allow R5 — internal benchmark-harness plumbing consumed only by bin/ and test/; the surface tracks the experiment set and changes too often for a separate interface to earn its keep *)
(** The benchmark matrix: every data structure of the paper's evaluation
    instantiated with every scheme of {!Schemes.all}. A cell whose
    structure answers [unsupported] (HHSList/NMTree with HP, EFRBTree with
    RC: the paper's "not applicable" entries) is absent from {!all}. *)

open Bench_types

type instance = {
  ds : string;
  scheme : string;
  run : ?config:Smr.Smr_intf.config -> cfg -> result;
  run_long_reads :
    ?config:Smr.Smr_intf.config -> writer_range:int -> cfg -> result;
}

let structures : (string * (module Smr_ds.Ds_intf.MAKE_MAP)) list =
  [
    ("HMList", (module Smr_ds.Hmlist.Make));
    ("HHSList", (module Smr_ds.Hhslist.Make));
    ("HashMap", (module Smr_ds.Hashmap.Make));
    ("SkipList", (module Smr_ds.Skiplist.Make));
    ("NMTree", (module Smr_ds.Nmtree.Make));
    ("EFRBTree", (module Smr_ds.Efrbtree.Make));
    ("Bonsai", (module Smr_ds.Bonsai.Make));
  ]

let ds_order = List.map fst structures

let category = function
  | "HMList" | "HHSList" -> `List
  | _ -> `Other

(* Each functor is applied once, here, so functor-level state (SkipList's
   [locals_seed]) lives as long as the program. *)
let instantiate (ds, (module Make : Smr_ds.Ds_intf.MAKE_MAP))
    (scheme, (module S : Smr.Smr_intf.S)) =
  let module M = Make (S) in
  match M.unsupported with
  | Some _ -> None
  | None ->
      let module R = Runner.Make (S) (M) in
      Some { ds; scheme; run = R.run; run_long_reads = R.run_long_reads }

let all : instance list =
  List.concat_map
    (fun d -> List.filter_map (instantiate d) Schemes.all)
    structures

let find ~ds ~scheme =
  List.find_opt (fun i -> i.ds = ds && i.scheme = scheme) all
