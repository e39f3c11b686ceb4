(** Treiber's stack (1986) — the paper's §2.2 running example for
    HP-with-over-approximation (Figure 2).

    Nodes do not change once pushed, and deletion happens only at the entry
    point (the top), so classic [retire] is safe with every scheme. With
    HP-family schemes, [pop] validates protection by re-checking that [top]
    still holds the protected node. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link

module Make (S : Smr.Smr_intf.S) = struct
  module C = Ds_common.Make (S)

  (* [hdr] is the node's embedded header word: second and mutable, read and
     written only through [Mem.of_node]. [next] is written only before the
     push's CAS publishes the node. *)
  type 'v node = {
    mutable next : 'v node option;
    mutable hdr : Mem.cell;
    value : 'v;
  }

  type 'v t = { scheme : S.t; top : 'v node Link.t }
  type local = { handle : S.handle; hp : S.guard }

  let create scheme = { scheme; top = Link.null () }
  let scheme t = t.scheme
  let stats t = S.stats t.scheme
  let make_local handle = { handle; hp = S.guard handle }
  let clear_local l = S.release l.hp

  let push t l value =
    let node = { next = None; hdr = Mem.cell (stats t); value } in
    C.with_crit l.handle (stats t) (fun () ->
        let top_t = Link.get t.top in
        node.next <-
          (match Tagged.shape top_t with
          | Tagged.Ptr -> Some (Tagged.node top_t)
          | Tagged.Null -> None);
        if Link.cas_clean t.top top_t (Tagged.make node) then `Done ()
        else `Retry)

  let pop t l =
    C.with_crit l.handle (stats t) (fun () ->
        let top_t = Link.get t.top in
        match Tagged.shape top_t with
        | Tagged.Null -> `Done None
        | Tagged.Ptr ->
            let n = Tagged.node top_t in
            if
              not
                (C.protect_pessimistic ~src:Mem.phantom l.hp
                   l.handle ~src_link:t.top top_t)
            then `Prot
            else begin
              Mem.check_access (Mem.of_node n);
              if Link.cas_clean t.top top_t (Tagged.of_option n.next) then begin
                S.retire l.handle (Mem.of_node n);
                `Done (Some n.value)
              end
              else `Retry
            end)

  let peek t l =
    C.with_crit l.handle (stats t) (fun () ->
        let top_t = Link.get t.top in
        match Tagged.shape top_t with
        | Tagged.Null -> `Done None
        | Tagged.Ptr ->
            let n = Tagged.node top_t in
            if
              not
                (C.protect_pessimistic ~src:Mem.phantom l.hp
                   l.handle ~src_link:t.top top_t)
            then `Prot
            else begin
              Mem.check_access (Mem.of_node n);
              `Done (Some n.value)
            end)

  (* Quiescent helpers. *)

  let to_list t =
    let rec walk acc = function
      | None -> List.rev acc
      | Some n -> walk (n.value :: acc) n.next
    in
    let top_t = Link.get_quiescent t.top in
    match Tagged.shape top_t with
    | Tagged.Null -> []
    | Tagged.Ptr -> walk [] (Some (Tagged.node top_t))

  let length t = List.length (to_list t)
end
