let all =
  List.map
    (fun (module S : Smr.Smr_intf.S) -> (S.name, (module S : Smr.Smr_intf.S)))
    [
      (module Nr);
      (module Ebr);
      (module Pebr);
      (module Hp);
      (module Hp_plus);
      (module Rc);
    ]

let names = List.map fst all
let find name = List.assoc_opt name all

(* Each flush runs a reclamation pass and, for the epoch schemes, tries to
   advance the epoch; a handful settles a block that nothing protects. *)
let reclaims (module S : Smr.Smr_intf.S) =
  let s = S.create () in
  let stats = S.stats s in
  let h = S.register s in
  S.crit_enter h;
  S.retire h (Smr_core.Mem.make stats);
  S.crit_exit h;
  for _ = 1 to 8 do
    S.flush h
  done;
  S.unregister h;
  S.shutdown s;
  Smr_core.Stats.freed stats > 0

let reclaiming () = List.filter (fun (_, m) -> reclaims m) all
