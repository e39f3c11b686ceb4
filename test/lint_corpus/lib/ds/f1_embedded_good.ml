(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F1 good twin: the same walk over embedded links, each step validated
   through try_protect before [Link.of_node] reads the node's link. *)

let length t l =
  let rec go acc src link expected =
    let cur =
      C.try_protect ~src l.hp l.handle ~src_link:link expected
    in
    if Tagged.is_invalid cur then None
    else
      match Tagged.shape cur with
      | Tagged.Null -> Some acc
      | Tagged.Ptr ->
          let n = Tagged.node cur in
          let next = Link.of_node n in
          go (acc + 1) (Mem.of_node n) next (Link.get next)
  in
  go 0 Mem.phantom t.head (Link.get t.head)
