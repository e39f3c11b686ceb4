(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F3 seed: use after retire through the embedded header. A node carries
   its header word itself, so [Mem.of_node n] is [n]: retiring it hands
   [n] to the next reclaim pass, and the read of [n.key] after the retire
   may touch a freed node. An analysis that takes [Mem.of_node n] for an
   opaque value sees the retire land on nothing and misses the read. *)

let finish_unlink l n =
  S.retire l.handle (Mem.of_node n);
  n.key
