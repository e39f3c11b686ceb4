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

  (* [next] is the node's embedded successor link and [hdr] its embedded
     header word: first and second, mutable, read and written only through
     [Link.of_node] and [Mem.of_node]. [next] is written only before the
     push's CAS publishes the node. *)
  type 'v node = {
    mutable next : 'v node Link.cell;
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
    let node =
      { next = Link.cell Tagged.null; hdr = Mem.cell (stats t); value }
    in
    C.with_crit l.handle (stats t) (fun () ->
        let top_t = Link.get t.top in
        Link.set (Link.of_node node) top_t;
        if Link.cas_clean t.top top_t (Tagged.make node) then `Done ()
        else `Retry)

  let pop t l =
    C.with_crit l.handle (stats t) (fun () ->
        let top_t = Link.get t.top in
        match Tagged.shape top_t with
        | Tagged.Null -> `Done None
        | Tagged.Ptr ->
            let top_s =
              C.protect_pessimistic ~src:Mem.phantom l.hp l.handle
                ~src_link:t.top top_t
            in
            if Tagged.is_invalid (Tagged.raw top_s) then `Prot
            else begin
              let n = Tagged.node top_s in
              Mem.check_access (Mem.of_node n);
              let next_t = Link.get (Link.of_node n) in
              if Link.cas_clean t.top top_t next_t then begin
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
            let top_s =
              C.protect_pessimistic ~src:Mem.phantom l.hp l.handle
                ~src_link:t.top top_t
            in
            if Tagged.is_invalid (Tagged.raw top_s) then `Prot
            else begin
              let n = Tagged.node top_s in
              Mem.check_access (Mem.of_node n);
              `Done (Some n.value)
            end)

  (* Quiescent helpers. *)

  let to_list t =
    let rec walk acc tg =
      match Tagged.shape (Tagged.raw tg) with
      | Tagged.Null -> List.rev acc
      | Tagged.Ptr ->
          let n = Tagged.node tg in
          walk (n.value :: acc) (Link.get_quiescent (Link.of_node n))
    in
    walk [] (Link.get_quiescent t.top)

  let length t = List.length (to_list t)
end
