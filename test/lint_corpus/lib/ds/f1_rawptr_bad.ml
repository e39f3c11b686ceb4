(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F1 seed: the classic raw traversal on tagged links. Every node is
   fetched with a plain Link.get and taken with [Tagged.node] on the
   [Tagged.Ptr] arm with no try_protect, so Validated never dominates the
   field accesses. *)

let lookup t key =
  let rec go l =
    let r = Link.get l in
    match Tagged.shape r with
    | Tagged.Null -> None
    | Tagged.Ptr ->
        let n = Tagged.node r in
        if n.key = key then Some n.value else go n.next
  in
  go t.head
