(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F1 seed: the raw traversal on embedded links. The successor link lives
   in the node and is reached with [Link.of_node n], never [n.next]; no
   step goes through try_protect, so Validated never dominates the view of
   [n]'s link. *)

let length t =
  let rec go acc l =
    match Link.get l with
    | Tagged.Null _ -> acc
    | Tagged.Ptr (n, _) -> go (acc + 1) (Link.of_node n)
  in
  go 0 t.head
