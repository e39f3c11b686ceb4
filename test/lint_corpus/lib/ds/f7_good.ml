(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F7 good twin: quiescent reads in a read-only sweep (drop-phase
   traversal); the function performs no synchronization at all. *)

let length t =
  let rec go acc l =
    let r = Link.get_quiescent l in
    match Tagged.shape r with
    | Tagged.Null -> acc
    | Tagged.Ptr -> go (acc + 1) (Tagged.node r).next
  in
  go 0 t.head
