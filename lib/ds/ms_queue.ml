(** Michael–Scott queue (PODC 1996) — cited by the paper (§4.2) as a
    structure where only the tail node mutates and unlinking happens at the
    head, so Assumption 1 holds and classic HP retirement suffices. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link

module Make (S : Smr.Smr_intf.S) = struct
  module C = Ds_common.Make (S)

  (* [next] is the node's embedded successor link: first and mutable, read
     and written only through [Link.of_node]. [hdr] is its embedded header
     word: second and mutable, read and written only through
     [Mem.of_node]. *)
  type 'v node = {
    mutable next : 'v node Link.cell;
    mutable hdr : Mem.cell;
    value : 'v option;
  }

  type 'v t = { scheme : S.t; head : 'v node Link.t; tail : 'v node Link.t }
  type local = { handle : S.handle; hp_head : S.guard; hp_next : S.guard }

  let create scheme =
    let stats = S.stats scheme in
    let dummy =
      { next = Link.cell Tagged.null; hdr = Mem.cell stats; value = None }
    in
    let d = Tagged.make dummy in
    { scheme; head = Link.make d; tail = Link.make d }

  let scheme t = t.scheme
  let stats t = S.stats t.scheme

  let make_local handle =
    { handle; hp_head = S.guard handle; hp_next = S.guard handle }

  let clear_local l =
    S.release l.hp_head;
    S.release l.hp_next

  let enqueue t l value =
    let node =
      {
        next = Link.cell Tagged.null;
        hdr = Mem.cell (stats t);
        value = Some value;
      }
    in
    C.with_crit l.handle (stats t) (fun () ->
        let tail_t = Link.get t.tail in
        let tail_s =
          C.protect_pessimistic ~src:Mem.phantom l.hp_head l.handle
            ~src_link:t.tail tail_t
        in
        if Tagged.is_invalid (Tagged.raw tail_s) then `Prot
        else begin
          let tl = Tagged.node tail_s in
          Mem.check_access (Mem.of_node tl);
          let next_t = Link.get (Link.of_node tl) in
          match Tagged.shape next_t with
          | Tagged.Null ->
              if Link.cas_clean (Link.of_node tl) next_t (Tagged.make node)
              then begin
                (* Swing the tail; losing this CAS is fine (someone helped). *)
                ignore
                  (Link.cas_clean t.tail tail_t (Tagged.make node));
                `Done ()
              end
              else `Retry
          | Tagged.Ptr ->
              (* Tail lags behind: help advance it. *)
              ignore
                (Link.cas_clean t.tail tail_t (Tagged.untagged next_t));
              `Retry
        end)

  let dequeue t l =
    C.with_crit l.handle (stats t) (fun () ->
        let head_t = Link.get t.head in
        let head_s =
          C.protect_pessimistic ~src:Mem.phantom l.hp_head l.handle
            ~src_link:t.head head_t
        in
        if Tagged.is_invalid (Tagged.raw head_s) then `Prot
        else begin
          let h = Tagged.node head_s in
          Mem.check_access (Mem.of_node h);
          let tail_t = Link.get t.tail in
          let next_t = Link.get (Link.of_node h) in
          match Tagged.shape next_t with
          | Tagged.Null -> `Done None
          | Tagged.Ptr ->
              if Tagged.same_ptr head_t tail_t then begin
                (* Help the lagging tail past the dummy. *)
                ignore (Link.cas_clean t.tail tail_t (Tagged.untagged next_t));
                `Retry
              end
              else begin
                (* Protect [n], then validate: while [head] still holds [h],
                   [n] cannot have been retired, so the protection is safe. *)
                C.protect l.hp_next (Tagged.header next_t);
                if not (C.protection_valid l.handle) then `Prot
                else if not (Tagged.same_ptr (Link.get t.head) head_t) then
                  `Retry
                else begin
                  let n = Tagged.node (Tagged.validated next_t) in
                  Mem.check_access (Mem.of_node n);
                  let value = n.value in
                  if Link.cas_clean t.head head_t (Tagged.untagged next_t)
                  then begin
                    S.retire l.handle (Mem.of_node h);
                    `Done value
                  end
                  else `Retry
                end
              end
        end)

  (* Quiescent helpers. *)

  (* [head] points at the current dummy, whose [value] is whatever the
     last dequeue returned (dequeue advances [head] without clearing the
     field), so the walk must skip the first node unconditionally — only
     the initial dummy carries [None]. Matching on [value] instead would
     re-include the last-dequeued element (caught by the model checker:
     test/check_corpus/msqueue-to-list-model.case). *)
  let to_list t =
    let rec walk acc tg =
      match Tagged.shape (Tagged.raw tg) with
      | Tagged.Null -> List.rev acc
      | Tagged.Ptr ->
          let n = Tagged.node tg in
          let acc = match n.value with Some v -> v :: acc | None -> acc in
          walk acc (Link.get_quiescent (Link.of_node n))
    in
    let head_t = Link.get_quiescent t.head in
    match Tagged.shape (Tagged.raw head_t) with
    | Tagged.Null -> []
    | Tagged.Ptr ->
        walk [] (Link.get_quiescent (Link.of_node (Tagged.node head_t)))

  let length t = List.length (to_list t)
end
