(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F1 seed: the classic raw traversal on the flat tagged links. Every node
   is fetched with a plain Link.get and reached through a [Tagged.Ptr] arm
   with no try_protect, so Validated never dominates the field accesses. *)

let lookup t key =
  let rec go l =
    match Link.get l with
    | Tagged.Null _ -> None
    | Tagged.Ptr (n, _) -> if n.key = key then Some n.value else go n.next
  in
  go t.head
