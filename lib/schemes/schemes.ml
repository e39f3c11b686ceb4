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
