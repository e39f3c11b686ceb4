(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F1 good twin: the same traversal validated step by step through
   try_protect; every dereference sits on the [not (Tagged.is_invalid cur)]
   branch, under a Validated pointer. *)

let lookup t l key =
  let rec go src link expected =
    let cur =
      C.try_protect ~src l.hp l.handle ~src_link:link expected
    in
    if Tagged.is_invalid cur then None
    else
      match Tagged.shape cur with
      | Tagged.Null -> None
      | Tagged.Ptr ->
          let n = Tagged.node cur in
          if n.key = key then Some n.value
          else go (Mem.of_node n) n.next (Link.get n.next)
  in
  go Mem.phantom t.head (Link.get t.head)
