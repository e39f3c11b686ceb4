(** Harris–Michael linked list (Michael, SPAA 2002): the HP-compatible,
    pessimistic ordered list of the paper's §2.2.

    Traversal is hand-over-hand: each step protects the next node and
    validates with the over-approximation "the previous link still holds the
    node, untagged" — so the traversal never steps out of a logically
    deleted node and instead eagerly unlinks it. Works with every scheme. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Stats = Smr_core.Stats

module Make (S : Smr.Smr_intf.S) = struct
  module C = Ds_common.Make (S)

  (* [next] is the node's embedded successor link: first and mutable, read
     and written only through [Link.of_node]. [hdr] is its embedded header
     word: second and mutable, read and written only through
     [Mem.of_node]. *)
  type 'v node = {
    mutable next : 'v node Link.cell;
    mutable hdr : Mem.cell;
    key : int;
    value : 'v;
  }

  type 'v t = { scheme : S.t; head : 'v node Link.t }

  type local = {
    handle : S.handle;
    hp_prev : S.guard;
    hp_cur : S.guard;
  }

  type scheme = S.t
  type handle = S.handle

  let unsupported = None

  let create scheme = { scheme; head = Link.null () }
  let scheme t = t.scheme
  let stats t = S.stats t.scheme

  let make_local handle =
    { handle; hp_prev = S.guard handle; hp_cur = S.guard handle }

  let clear_local l =
    S.release l.hp_prev;
    S.release l.hp_cur

  (* One traversal attempt from the head. Returns [`Prot] on a failed
     protection validation (restart from scratch), [`Retry] when a cleanup
     CAS lost a race, or [`Done (found, prev_link, cur_t, cur)] positioned
     at the first node with key >= [key] ([cur_t] is the current record of
     [prev_link], the expected value for a subsequent CAS). [gcur]
     protects the node being read and [gprev] the owner of [prev_link]; a
     step swaps them at the recursive call. Steps trace no source node. *)
  let find_attempt t l key =
    let rec advance gprev gcur prev_link cur_t =
      match Tagged.shape cur_t with
      | Tagged.Null -> `Done (false, prev_link, cur_t, None)
      | Tagged.Ptr ->
          let cur_s =
            C.protect_pessimistic ~src:Mem.phantom gcur l.handle
              ~src_link:prev_link cur_t
          in
          if Tagged.is_invalid (Tagged.raw cur_s) then `Prot
          else begin
            let cur = Tagged.node cur_s in
            Mem.check_access (Mem.of_node cur);
            let next_t = Link.get (Link.of_node cur) in
            if Tagged.is_deleted next_t then begin
              (* [cur] is logically deleted: unlink it before moving on
                 (the pessimism HP requires). *)
              let desired = Tagged.with_tag next_t 0 in
              if Link.cas_clean prev_link cur_t desired then begin
                S.retire l.handle (Mem.of_node cur);
                advance gprev gcur prev_link desired
              end
              else `Retry
            end
            else if cur.key >= key then
              `Done (cur.key = key, prev_link, cur_t, Some cur)
            else advance gcur gprev (Link.of_node cur) next_t
          end
    in
    advance l.hp_prev l.hp_cur t.head (Link.get t.head)

  let get t l key =
    C.with_crit l.handle (stats t) (fun () ->
        match find_attempt t l key with
        | (`Prot | `Retry) as r -> r
        | `Done (found, _, _, cur) ->
            if found then `Done (Option.map (fun n -> n.value) cur)
            else `Done None)

  let insert t l key value =
    let fresh = ref None in
    C.with_crit l.handle (stats t) (fun () ->
        match find_attempt t l key with
        | (`Prot | `Retry) as r -> r
        | `Done (found, prev_link, cur_t, _) ->
            if found then begin
              (match !fresh with
              | Some n -> Mem.discard (stats t) (Mem.of_node n)
              | None -> ());
              `Done false
            end
            else
              let node =
                match !fresh with
                | Some n -> n
                | None ->
                    let n =
                      {
                        next = Link.cell Tagged.null;
                        hdr = Mem.cell (stats t);
                        key;
                        value;
                      }
                    in
                    fresh := Some n;
                    n
              in
              Link.set (Link.of_node node) (Tagged.with_tag cur_t 0);
              if Link.cas_clean prev_link cur_t (Tagged.make node) then
                `Done true
              else `Retry)

  let remove t l key =
    C.with_crit l.handle (stats t) (fun () ->
        match find_attempt t l key with
        | (`Prot | `Retry) as r -> r
        | `Done (found, prev_link, cur_t, cur) ->
            if not found then `Done false
            else
              let cur = Option.get cur in
              let next_t = Link.get (Link.of_node cur) in
              if Tagged.is_deleted next_t then `Retry (* someone else won *)
              else if
                not
                  (Link.cas_clean (Link.of_node cur) next_t
                     (Tagged.set_bits next_t Tagged.deleted_bit))
              then `Retry
              else begin
                (* Logical deletion done; physically unlink if we can, else
                   a later traversal will. Only the unlinker retires. *)
                let desired = Tagged.with_tag next_t 0 in
                if Link.cas_clean prev_link cur_t desired then
                  S.retire l.handle (Mem.of_node cur);
                `Done true
              end)

  (* Quiescent helpers (single-threaded use only). *)

  let to_list t =
    let rec walk acc tg =
      match Tagged.shape (Tagged.raw tg) with
      | Tagged.Null -> List.rev acc
      | Tagged.Ptr ->
          let n = Tagged.node tg in
          let next_t = Link.get_quiescent (Link.of_node n) in
          let acc =
            if Tagged.is_deleted (Tagged.raw next_t) then acc
            else (n.key, n.value) :: acc
          in
          walk acc next_t
    in
    walk [] (Link.get_quiescent t.head)

  let size t = List.length (to_list t)

  (* Every node physically linked from the head must not be freed; walks
     marked nodes too. Quiescent test invariant. *)
  let assert_reachable_not_freed t =
    let rec walk tg =
      match Tagged.shape (Tagged.raw tg) with
      | Tagged.Null -> ()
      | Tagged.Ptr ->
          let n = Tagged.node tg in
          assert (not (Mem.is_freed (Mem.of_node n)));
          walk (Link.get_quiescent (Link.of_node n))
    in
    walk (Link.get_quiescent t.head)
end
