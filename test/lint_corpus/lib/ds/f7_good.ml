(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F7 good twin: quiescent reads in a read-only sweep (drop-phase
   traversal); the function performs no synchronization at all. *)

let length t =
  let rec go acc l =
    match Link.get_quiescent l with
    | Tagged.Null _ -> acc
    | Tagged.Ptr (n, _) -> go (acc + 1) n.next
  in
  go 0 t.head
