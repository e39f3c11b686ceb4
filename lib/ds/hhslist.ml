(** Harris's linked list (Harris, DISC 2001) with the wait-free get of
    Herlihy–Shavit — "HHSList" in the paper's evaluation — protected with
    HP++ exactly as in paper Algorithm 4.

    Traversal is {e optimistic}: it walks through chains of logically
    deleted nodes and unlinks a whole chain with one CAS. This is
    incompatible with the original HP ({!Make.create} raises
    {!Smr.Smr_intf.Unsupported_scheme}); with HP++/PEBR, protection fails
    only on invalidation/neutralization, and with EBR/NR/RC protection is
    free, so [get] is wait-free there and lock-free here (paper §4.3). *)

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
    hp_anchor : S.guard;
    hp_anchor_next : S.guard;
  }

  (* The pending chain unlink: CAS [a_link] from [a_expected] (pointing at
     the first deleted node of the chain) to the frontier. *)
  type 'v anchor_info = {
    a_link : 'v node Link.t;
    a_expected : 'v node Tagged.t;
    a_first : 'v node; (* = anchor_next: first node of the deleted chain *)
  }

  type scheme = S.t
  type handle = S.handle

  let unsupported =
    if S.supports_optimistic then None
    else
      Some
        ("HHSList traverses logically deleted chains, which " ^ S.name
       ^ " cannot protect (paper 2.3)")

  let create scheme =
    Option.iter
      (fun m -> raise (Smr.Smr_intf.Unsupported_scheme m))
      unsupported;
    { scheme; head = Link.null () }

  let scheme t = t.scheme
  let stats t = S.stats t.scheme

  let make_local handle =
    {
      handle;
      hp_prev = S.guard handle;
      hp_cur = S.guard handle;
      hp_anchor = S.guard handle;
      hp_anchor_next = S.guard handle;
    }

  let clear_local l =
    S.release l.hp_prev;
    S.release l.hp_cur;
    S.release l.hp_anchor;
    S.release l.hp_anchor_next

  (* Nodes of the just-unlinked chain, from its first node up to (not
     including) the frontier. Their links are frozen (all are logically
     deleted), so this walk is deterministic. *)
  let collect_chain first until =
    let is_until n = match until with Some c -> n == c | None -> false in
    let rec walk n acc =
      if is_until n then List.rev acc
      else
        let acc = n :: acc in
        let next_t = Link.get (Link.of_node n) in
        match Tagged.shape next_t with
        | Tagged.Ptr -> walk (Tagged.node (Tagged.owned next_t)) acc
        | Tagged.Null -> List.rev acc
    in
    walk first []

  let invalidate_node n = Link.mark_invalid (Link.of_node n)

  (* Paper Algorithm 4 TrySearch. One attempt; [`Done (found, prev_link,
     expected, cur)] leaves [prev_link] holding [expected] whose target is
     [cur], the first non-deleted node with key >= [key]. *)
  let search_attempt t l key =
    let finish ~found prev_link cur_t cur_opt anchor =
      match anchor with
      | None -> (
          match cur_opt with
          | Some c when Tagged.is_deleted (Link.get (Link.of_node c)) ->
              `Retry
          | _ -> `Done (found, prev_link, cur_t, cur_opt))
      | Some a ->
          let frontier =
            match cur_opt with Some c -> [ Mem.of_node c ] | None -> []
          in
          let desired = Tagged.with_tag cur_t 0 in
          let unlinked =
            S.try_unlink l.handle ~frontier
              ~do_unlink:(fun () ->
                if Link.cas_clean a.a_link a.a_expected desired then
                  Some (collect_chain a.a_first cur_opt)
                else None)
              ~node_header:Mem.of_node ~invalidate:(List.iter invalidate_node)
          in
          if not unlinked then `Retry
          else begin
            match cur_opt with
            | Some c when Tagged.is_deleted (Link.get (Link.of_node c)) ->
                `Retry
            | _ -> `Done (found, a.a_link, desired, cur_opt)
          end
    in
    (* The four guards ride along as arguments: [gcur] protects the node
       being read, [gprev] the owner of [prev_link], [ganchor] the owner of
       the pending chain's [a_link] and [ganext] its first node. A step
       hands roles on by permuting them at the recursive call. [src] is the
       header of the node owning [prev_link] ([Mem.phantom] at the head). *)
    let rec loop gprev gcur ganchor ganext src prev_link cur_t anchor =
      let cur_s = C.try_protect ~src gcur l.handle ~src_link:prev_link cur_t in
      let cur_t = Tagged.raw cur_s in
      if Tagged.is_invalid cur_t then `Prot
      else
        match Tagged.shape cur_t with
        | Tagged.Null -> finish ~found:false prev_link cur_t None anchor
        | Tagged.Ptr ->
            let cur = Tagged.node cur_s in
            let hcur = Mem.of_node cur in
            Mem.check_access hcur;
            let cur_link = Link.of_node cur in
            let next_t = Link.get cur_link in
            if not (Tagged.is_deleted next_t) then
              if cur.key >= key then
                finish ~found:(cur.key = key) prev_link cur_t (Some cur)
                  anchor
              else loop gcur gprev ganchor ganext hcur cur_link next_t None
            else begin
              (* [cur] is logically deleted: optimistic traversal walks
                 through it, remembering where the chain started. *)
              match anchor with
              | None ->
                  (* prev becomes the anchor; the old anchor slot is free *)
                  loop gcur ganchor gprev ganext hcur cur_link next_t
                    (Some
                       { a_link = prev_link; a_expected = cur_t; a_first = cur })
              | Some a ->
                  if src == Mem.of_node a.a_first then
                    (* prev is the chain's first node: pin it as anchor-next
                       and reuse the old anchor-next slot *)
                    loop gcur ganext ganchor gprev hcur cur_link next_t
                      anchor
                  else
                    loop gcur gprev ganchor ganext hcur cur_link next_t
                      anchor
            end
    in
    loop l.hp_prev l.hp_cur l.hp_anchor l.hp_anchor_next Mem.phantom t.head
      (Link.get t.head) None

  (* Wait-free (under EBR/NR/RC; lock-free under HP++/PEBR) search that
     ignores logical deletion entirely and never writes. Each step is one
     protect and one validation, and allocates nothing. *)
  let get t l key =
    C.with_crit l.handle (stats t) (fun () ->
        let rec walk gprev gcur src prev_link cur_t =
          let cur_s =
            C.try_protect ~src gcur l.handle ~src_link:prev_link cur_t
          in
          let cur_t = Tagged.raw cur_s in
          if Tagged.is_invalid cur_t then `Prot
          else
            match Tagged.shape cur_t with
            | Tagged.Null -> `Done None
            | Tagged.Ptr ->
                let cur = Tagged.node cur_s in
                Mem.check_access (Mem.of_node cur);
                let cur_link = Link.of_node cur in
                let next_t = Link.get cur_link in
                if cur.key > key then `Done None
                else if cur.key = key then
                  `Done
                    (if Tagged.is_deleted next_t then None else Some cur.value)
                else walk gcur gprev (Mem.of_node cur) cur_link next_t
        in
        walk l.hp_prev l.hp_cur Mem.phantom t.head (Link.get t.head))

  let insert t l key value =
    let fresh = ref None in
    C.with_crit l.handle (stats t) (fun () ->
        match search_attempt t l key with
        | (`Prot | `Retry) as r -> r
        | `Done (found, prev_link, cur_t, cur_opt) ->
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
              Link.set (Link.of_node node) (Tagged.of_option cur_opt);
              if Link.cas_clean prev_link cur_t (Tagged.make node) then
                `Done true
              else `Retry)

  let remove t l key =
    C.with_crit l.handle (stats t) (fun () ->
        match search_attempt t l key with
        | (`Prot | `Retry) as r -> r
        | `Done (found, prev_link, cur_t, cur_opt) ->
            if not found then `Done false
            else
              let cur = Option.get cur_opt in
              let next_t = Link.get (Link.of_node cur) in
              if Tagged.is_deleted next_t then `Retry
              else if
                not
                  (Link.cas_clean (Link.of_node cur) next_t
                     (Tagged.set_bits next_t Tagged.deleted_bit))
              then `Retry
              else begin
                (* Logically deleted (linearization point). Physical
                   deletion must go through TryUnlink so the frontier is
                   protected and [cur] invalidated before it is retired. *)
                let frontier =
                  match Tagged.shape next_t with
                  | Tagged.Ptr -> [ Tagged.header next_t ]
                  | Tagged.Null -> []
                in
                ignore
                  (S.try_unlink l.handle ~frontier
                     ~do_unlink:(fun () ->
                       if
                         Link.cas_clean prev_link cur_t
                           (Tagged.with_tag next_t 0)
                       then Some [ cur ]
                       else None)
                     ~node_header:Mem.of_node
                     ~invalidate:(List.iter invalidate_node));
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
