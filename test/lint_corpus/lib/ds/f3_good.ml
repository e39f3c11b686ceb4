(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F3 good twin: Treiber pop — the node is unlinked by the CAS before it
   is retired, and reading [n.value] after the retire is legal because
   this domain still holds the validated protection. *)

let pop t l =
  let cur =
    C.try_protect ~src:Mem.phantom l.hp l.handle ~src_link:t.head
      (Link.get t.head)
  in
  if Tagged.is_invalid cur then None
  else
    match Tagged.shape cur with
    | Tagged.Null -> None
    | Tagged.Ptr ->
        let n = Tagged.node cur in
        if Link.cas t.head cur (Link.get n.next) then begin
          S.retire l.handle cur;
          Some n.value
        end
        else None
