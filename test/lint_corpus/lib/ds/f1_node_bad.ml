(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F1 seed: [Tagged.node] of a link read that was announced in a hazard
   slot but never validated. A clean link is its node, so [Tagged.node r]
   aliases [r], and reading the node's key dereferences [r] while it is
   still unvalidated. *)

let first_key t l =
  let r = Link.get t.head in
  if Tagged.is_null r then None
  else begin
    S.protect l.hp (Mem.of_node (Tagged.node r));
    Some (Tagged.node r).key
  end
