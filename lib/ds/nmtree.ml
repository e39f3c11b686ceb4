(** Natarajan–Mittal lock-free external BST (PPoPP 2014) — a headline case
    for HP++: its traversal ignores in-progress deletions (edge flags/tags),
    so the original HP cannot protect it (paper Table 2, footnote 4);
    {!Make.create} rejects HP.

    Internal nodes route, leaves store values. Deletion marks {e edges}: the
    deleter {e flags} the edge to the doomed leaf, {e tags} the sibling
    edge, and splices at the {e ancestor} — one CAS that can remove a whole
    path of nodes whose edges were already tagged by pending deletes. That
    splice is the HP++ [try_unlink]: the surviving sibling is the frontier,
    and the spliced nodes' child edges are invalidated before retirement. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Stats = Smr_core.Stats

module Make (S : Smr.Smr_intf.S) = struct
  module C = Ds_common.Make (S)

  (* Edge bits: bit 0 = flag (leaf edge, deletion pending), bit 2 = tag
     (sibling edge, frozen); bit 1 is HP++'s invalidation. *)
  let flag_bit = Tagged.deleted_bit
  let tag_bit = 4

  let is_flagged r = Tagged.tag r land flag_bit <> 0
  let is_tagged r = Tagged.tag r land tag_bit <> 0

  (* [r] is a flagged edge to [leaf]: [leaf]'s delete is past its
     linearization point. *)
  let flagged_leaf r leaf = is_flagged r && Tagged.same_ptr r (Tagged.make leaf)

  (* Sentinel keys: all user keys must be < inf1. *)
  let inf1 = max_int - 1
  let inf2 = max_int

  type kind = Leaf | Internal

  (* [hdr] is the node's embedded header word: field 1 and mutable, read
     and written only through [Mem.of_node]. *)
  type 'v node = {
    key : int;
    mutable hdr : Mem.cell;
    value : 'v option;
    kind : kind;
    left : 'v node Link.t;
    right : 'v node Link.t;
  }

  (* The sentinels: R, and S, R's left child for good. *)
  type 'v t = { scheme : S.t; root : 'v node; s : 'v node }

  type local = {
    handle : S.handle;
    hp_ancestor : S.guard;
    hp_successor : S.guard;
    hp_parent : S.guard;
    hp_leaf : S.guard;
    hp_cur : S.guard;
  }

  type 'v seek_record = {
    sr_ancestor : 'v node;
    sr_ancestor_link : 'v node Link.t;
    sr_ancestor_rec : 'v node Tagged.t;
    sr_successor : 'v node;
    sr_parent : 'v node;
    sr_parent_link : 'v node Link.t;
    sr_parent_rec : 'v node Tagged.t;
    sr_leaf : 'v node;
  }

  let mk_node stats ~key ~value ~kind ~left ~right =
    {
      hdr = Mem.cell stats;
      key;
      value;
      kind;
      left = Link.make left;
      right = Link.make right;
    }

  type scheme = S.t
  type handle = S.handle

  let unsupported =
    if S.supports_optimistic then None
    else
      Some
        ("NMTree's traversal ignores in-progress deletions, which " ^ S.name
       ^ " cannot protect (paper Table 2)")

  let create scheme =
    Option.iter
      (fun m -> raise (Smr.Smr_intf.Unsupported_scheme m))
      unsupported;
    let stats = S.stats scheme in
    let leaf k =
      mk_node stats ~key:k ~value:None ~kind:Leaf ~left:Tagged.null
        ~right:Tagged.null
    in
    let s =
      mk_node stats ~key:inf1 ~value:None ~kind:Internal
        ~left:(Tagged.make (leaf inf1))
        ~right:(Tagged.make (leaf inf2))
    in
    let r =
      mk_node stats ~key:inf2 ~value:None ~kind:Internal
        ~left:(Tagged.make s)
        ~right:(Tagged.make (leaf inf2))
    in
    { scheme; root = r; s }

  let scheme t = t.scheme
  let stats t = S.stats t.scheme

  let make_local handle =
    {
      handle;
      hp_ancestor = S.guard handle;
      hp_successor = S.guard handle;
      hp_parent = S.guard handle;
      hp_leaf = S.guard handle;
      hp_cur = S.guard handle;
    }

  let clear_local l =
    S.release l.hp_ancestor;
    S.release l.hp_successor;
    S.release l.hp_parent;
    S.release l.hp_leaf;
    S.release l.hp_cur

  let child_link n key = if key < n.key then n.left else n.right

  (* Descend from the root, remembering the deepest edge that was untagged:
     its source is the ancestor where a splice for [key]'s leaf must happen.

     The guards ride along as arguments: [ga], [gs], [gp] and [gl] protect
     the ancestor, successor, parent and leaf, and [gc] is free for the next
     child. A step hands roles on by permuting them at the recursive call.
     R and S need no slot: every user leaf hangs below [S.left], which is
     never flagged or tagged, so neither sentinel is ever spliced out. The
     walk starts at S as the leaf below R; the edge R -> S is untagged, so
     the first step yields the paper's initial record (R, S, S, S.left). *)
  let seek t l key =
    let rec walk ga gs gp gl gc ancestor ancestor_link ancestor_rec successor
        parent parent_link parent_rec leaf =
      if leaf.kind = Leaf then
        `Done
          {
            sr_ancestor = ancestor;
            sr_ancestor_link = ancestor_link;
            sr_ancestor_rec = ancestor_rec;
            sr_successor = successor;
            sr_parent = parent;
            sr_parent_link = parent_link;
            sr_parent_rec = parent_rec;
            sr_leaf = leaf;
          }
      else
        let link = child_link leaf key in
        let next_s =
          C.try_protect ~src:(Mem.of_node leaf) gc l.handle ~src_link:link
            (Link.get link)
        in
        let next_rec = Tagged.raw next_s in
        if Tagged.is_invalid next_rec then `Prot
        else
          match Tagged.shape next_rec with
          | Tagged.Null -> `Retry
          | Tagged.Ptr ->
              let next = Tagged.node next_s in
              Mem.check_access (Mem.of_node next);
              if is_tagged parent_rec then
                (* The parent edge is frozen: ancestor and successor stay,
                   and the old parent's slot is free. *)
                walk ga gs gl gc gp ancestor ancestor_link ancestor_rec
                  successor leaf link next_rec next
              else begin
                (* The parent becomes the ancestor; the leaf becomes both
                   the successor and the new parent. The successor gets a
                   copy in the old ancestor's slot, taken while the leaf's
                   own slot still holds it, so that each role keeps a slot
                   of its own when the two part. *)
                C.protect ga (Mem.of_node leaf);
                walk gp ga gl gc gs parent parent_link parent_rec leaf leaf
                  link next_rec next
              end
    in
    let r = t.root in
    let s_rec = Link.get r.left in
    walk l.hp_ancestor l.hp_successor l.hp_parent l.hp_leaf l.hp_cur r r.left
      s_rec t.s r r.left s_rec t.s

  let invalidate_nodes nodes =
    List.iter
      (fun n ->
        Link.mark_invalid n.left;
        Link.mark_invalid n.right)
      nodes

  (* Nodes spliced out by the ancestor CAS: the routing path from the old
     successor down to the doomed leaf. All edges on it are flagged or
     tagged, hence frozen. *)
  let collect_spliced successor key =
    let rec walk n acc =
      let acc = n :: acc in
      if n.kind = Leaf then List.rev acc
      else
        let child = Link.get (child_link n key) in
        match Tagged.shape child with
        | Tagged.Ptr -> walk (Tagged.node (Tagged.owned child)) acc
        | Tagged.Null -> List.rev acc
    in
    walk successor []

  (* Remove [sr_leaf] (whose parent edge we or a helper flagged): tag the
     sibling edge, then splice at the ancestor. Returns true when the splice
     succeeded (by us). *)
  let cleanup l key (sr : 'v seek_record) =
    let parent = sr.sr_parent in
    Mem.check_access (Mem.of_node parent);
    let leaf_on_left =
      Tagged.same_ptr (Link.get parent.left) (Tagged.make sr.sr_leaf)
    in
    let sibling_link = if leaf_on_left then parent.right else parent.left in
    let rec tag_sibling () =
      let r = Link.get sibling_link in
      if is_tagged r then r
      else if Link.cas sibling_link r (Tagged.set_bits r tag_bit) then
        Tagged.set_bits r tag_bit
      else tag_sibling ()
    in
    let sib_rec = tag_sibling () in
    match Tagged.shape sib_rec with
    | Tagged.Null -> false
    | Tagged.Ptr ->
        (* The sibling moves up with its tag cleared but its flag kept: a
           flagged sibling is a leaf whose own delete is pending, and
           dropping the flag would resurrect it unfrozen, letting an insert
           hang a live leaf under an edge that a later splice removes. *)
        let moved =
          Tagged.with_tag sib_rec (Tagged.tag sib_rec land flag_bit)
        in
        S.try_unlink l.handle
          ~frontier:[ Tagged.header sib_rec ]
          ~do_unlink:(fun () ->
            if
              Link.cas_clean sr.sr_ancestor_link sr.sr_ancestor_rec moved
            then Some (collect_spliced sr.sr_successor key)
            else None)
          ~node_header:Mem.of_node ~invalidate:invalidate_nodes

  let get t l key =
    if key >= inf1 then invalid_arg "Nmtree: key too large";
    C.with_crit l.handle (stats t) (fun () ->
        match seek t l key with
        | (`Prot | `Retry) as r -> r
        | `Done sr ->
            (* a flagged leaf edge is a delete past its linearization point *)
            if sr.sr_leaf.key = key && not (is_flagged sr.sr_parent_rec) then
              `Done sr.sr_leaf.value
            else `Done None)

  let insert t l key value =
    if key >= inf1 then invalid_arg "Nmtree: key too large";
    C.with_crit l.handle (stats t) (fun () ->
        match seek t l key with
        | (`Prot | `Retry) as r -> r
        | `Done sr ->
            let leaf = sr.sr_leaf in
            if leaf.key = key then
              if is_flagged sr.sr_parent_rec then begin
                (* [key] is logically deleted but not yet spliced out, e.g.
                   by a remove that returned after a protection failure
                   past its flag CAS: finish the splice, then retry. *)
                ignore (cleanup l key sr);
                `Retry
              end
              else `Done false
            else begin
              Mem.check_access (Mem.of_node leaf);
              let st = stats t in
              let new_leaf =
                mk_node st ~key ~value:(Some value) ~kind:Leaf
                  ~left:Tagged.null ~right:Tagged.null
              in
              let lo_leaf, hi_leaf =
                if key < leaf.key then (new_leaf, leaf) else (leaf, new_leaf)
              in
              let internal =
                mk_node st ~key:(max key leaf.key) ~value:None ~kind:Internal
                  ~left:(Tagged.make lo_leaf)
                  ~right:(Tagged.make hi_leaf)
              in
              if
                Link.cas_clean sr.sr_parent_link sr.sr_parent_rec
                  (Tagged.make internal)
              then `Done true
              else begin
                (* Discard the two unpublished nodes and help a pending
                   delete if that is what blocked us. *)
                Mem.discard st (Mem.of_node new_leaf);
                Mem.discard st (Mem.of_node internal);
                if flagged_leaf (Link.get sr.sr_parent_link) leaf then
                  ignore (cleanup l key sr);
                `Retry
              end
            end)

  let remove t l key =
    if key >= inf1 then invalid_arg "Nmtree: key too large";
    C.with_crit l.handle (stats t) (fun () ->
        let rec injection () =
          match seek t l key with
          | (`Prot | `Retry) as r -> r
          | `Done sr ->
              let leaf = sr.sr_leaf in
              if leaf.key <> key then `Done false
              else if
                Link.cas_clean sr.sr_parent_link sr.sr_parent_rec
                  (Tagged.make ~tag:flag_bit leaf)
              then begin
                (* We own the deletion; splice until done or helped. *)
                if cleanup l key sr then `Done true
                else pursue leaf
              end
              else begin
                (* Someone else flagged this leaf: help, then retry. *)
                if flagged_leaf (Link.get sr.sr_parent_link) leaf then
                  ignore (cleanup l key sr);
                injection ()
              end
        and pursue leaf =
          (* Our flag is planted; re-seek until the leaf is spliced out
             (possibly by a helper). *)
          match seek t l key with
          | `Prot -> `Prot_owned leaf
          | `Retry -> pursue leaf
          | `Done sr ->
              if sr.sr_leaf != leaf then `Done true
              else if cleanup l key sr then `Done true
              else pursue leaf
        in
        match injection () with
        | `Prot_owned _ ->
            (* Protection failed after the linearization point (the flag
               CAS): the operation already succeeded; helpers finish the
               splice (paper §4.2 recovery discussion). *)
            `Done true
        | (`Prot | `Retry | `Done _) as r -> r)

  (* Quiescent helpers. *)

  let to_list t =
    let rec walk n acc =
      match n.kind with
      | Leaf ->
          if n.key >= inf1 then acc
          else (n.key, Option.get n.value) :: acc
      | Internal ->
          let go link acc =
            let child = Link.get_quiescent link in
            match Tagged.shape (Tagged.raw child) with
            | Tagged.Ptr -> walk (Tagged.node child) acc
            | Tagged.Null -> acc
          in
          go n.left (go n.right acc)
    in
    List.sort compare (walk t.root [])

  let size t = List.length (to_list t)

  let assert_reachable_not_freed t =
    let rec walk n =
      assert (not (Mem.is_freed (Mem.of_node n)));
      let go link =
        let child = Link.get_quiescent link in
        match Tagged.shape (Tagged.raw child) with
        | Tagged.Ptr -> walk (Tagged.node child)
        | Tagged.Null -> ()
      in
      go n.left;
      go n.right
    in
    walk t.root
end
