(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F2 good twin: protection is validated before the pointer escapes. *)

let peek t l =
  let cur = Link.get t.head in
  S.protect l.hp cur;
  if S.protection_valid l.handle then cur else Tagged.null
