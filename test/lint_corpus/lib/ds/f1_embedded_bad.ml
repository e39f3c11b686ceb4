(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F1 seed: the raw traversal on embedded links. The successor link lives
   in the node and is reached with [Link.of_node n], never [n.next]; no
   step goes through try_protect, so Validated never dominates the view of
   [n]'s link. *)

let length t =
  let rec go acc l =
    let r = Link.get l in
    match Tagged.shape r with
    | Tagged.Null -> acc
    | Tagged.Ptr -> go (acc + 1) (Link.of_node (Tagged.node r))
  in
  go 0 t.head
