(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F2 seed: the protected-pointer escape named by ISSUE 9. The head is
   protected but never validated, and the merely-Protected pointer is
   returned — the hazard slot is released when the caller's window ends,
   yet the caller will treat the value as safe. *)

let peek t l =
  let cur = Link.get t.head in
  S.protect l.hp cur;
  cur
