(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F3 good twin: the same unlink tail reads [n.key] before it retires
   [n] through its embedded header, so nothing touches [n] afterwards. *)

let finish_unlink l n =
  let key = n.key in
  S.retire l.handle (Mem.of_node n);
  key
