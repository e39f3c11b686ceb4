(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F1 seed: a failed protection falls back to the expected node. The
   traversal calls try_protect, but on the invalid branch it still reads
   [expected] — announced in the hazard slot, never validated — so
   Validated does not dominate that field access. *)

let lookup t l key =
  let rec go src link =
    let expected = Link.get link in
    let cur =
      C.try_protect ~src l.hp l.handle ~src_link:link expected
    in
    if Tagged.is_invalid cur then
      match Tagged.shape expected with
      | Tagged.Ptr when (Tagged.node expected).key = key ->
          Some (Tagged.node expected).value
      | _ -> None
    else
      match Tagged.shape cur with
      | Tagged.Null -> None
      | Tagged.Ptr ->
          let n = Tagged.node cur in
          if n.key = key then Some n.value else go (Mem.of_node n) n.next
  in
  go Mem.phantom t.head
