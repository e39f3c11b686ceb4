(** Ellen–Fatourou–Ruppert–van Breugel non-blocking external BST
    (PODC 2010), coordinated by operation descriptors with helping.

    Every mutation first flags the affected internal node's [update] field
    with a descriptor ([IFlag]/[DFlag]/[Mark]); any thread meeting a flag
    helps the pending operation to completion. Because helpers can prove
    reachability of the descriptor's nodes from the descriptor itself, this
    tree is protectable by the original HP (paper Table 2 and Appendix B) —
    unlike NMTree. With HP++, the delete splice is a [try_unlink] whose
    frontier is the surviving sibling subtree root. An insert links a copy
    of the leaf it replaces and unlinks the old one through [try_unlink]
    too, with no frontier, so no child link ever returns to a node it
    left.

    Descriptors themselves are reclaimed by the runtime GC here; a C
    implementation must manage them too, which is why the paper's
    evaluation omits EFRBTree + reference counting (descriptor cycles). We
    mirror that omission: {!Make.create} rejects RC. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Stats = Smr_core.Stats
module Trace = Obs.Trace

module Make (S : Smr.Smr_intf.S) = struct
  module C = Ds_common.Make (S)

  let inf1 = max_int - 1
  let inf2 = max_int

  type kind = Leaf | Internal
  type state = Clean | IFlag | DFlag | Mark

  (* [update] holds a fresh record per transition, so physical-equality CAS
     is exactly the paper's (state, info-pointer) double-word CAS. [gen]
     makes CLEAN records structurally distinct so the compiler cannot lift
     them to one shared static block, which would reintroduce ABA. *)
  type 'v update = { state : state; info : 'v info option; gen : int }

  and 'v info = I of 'v iinfo | D of 'v dinfo

  and 'v iinfo = {
    i_p : 'v node;
    i_l : 'v node; (* the leaf the new internal node replaces *)
    i_l_rec : 'v node Tagged.t; (* p's child record pointing at l *)
    i_l_link : 'v node Link.t; (* the child field holding it *)
    i_new_internal : 'v node; (* holds the new leaf and a copy of l *)
  }

  and 'v dinfo = {
    d_gp : 'v node;
    d_p : 'v node;
    d_l : 'v node;
    d_pupdate : 'v update; (* p's update read at search time *)
    d_gp_rec : 'v node Tagged.t; (* gp's child record pointing at p *)
    d_gp_link : 'v node Link.t; (* the child field holding it *)
  }

  (* [hdr] is the node's embedded header word: field 1 and mutable, read
     and written only through [Mem.of_node]. *)
  and 'v node = {
    key : int;
    mutable hdr : Mem.cell;
    value : 'v option;
    kind : kind;
    left : 'v node Link.t;
    right : 'v node Link.t;
    update : 'v update Atomic.t;
  }

  (* Unflagging must install a physically fresh record: the paper's CLEAN
     word keeps the op pointer to distinguish generations, and a recurring
     record lets a stale flag CAS succeed after the children changed (ABA),
     silently losing an update. The generation counter guarantees a fresh
     allocation — an all-constant literal would be statically shared. *)
  let clean_gen = Atomic.make 0

  let fresh_clean () =
    { state = Clean; info = None; gen = Atomic.fetch_and_add clean_gen 1 }

  let clean_update = { state = Clean; info = None; gen = -1 }

  (* [root] is the sentinel R; [s_rec] is its left child record, which
     holds the sentinel S for good. *)
  type 'v t = { scheme : S.t; root : 'v node; s_rec : 'v node Tagged.safe }

  type local = {
    handle : S.handle;
    hp_gp : S.guard;
    hp_p : S.guard;
    hp_l : S.guard;
    hp_cur : S.guard;
  }

  type 'v search_result = {
    s_gp : 'v node;
    s_p : 'v node;
    s_l : 'v node;
    s_gpupdate : 'v update;
    s_pupdate : 'v update;
    s_p_rec : 'v node Tagged.t; (* gp -> p *)
    s_p_link : 'v node Link.t;
    s_l_rec : 'v node Tagged.t; (* p -> l *)
    s_l_link : 'v node Link.t;
  }

  let mk_node stats ~key ~value ~kind ~left ~right =
    {
      hdr = Mem.cell stats;
      key;
      value;
      kind;
      left = Link.make left;
      right = Link.make right;
      update = Atomic.make clean_update;
    }

  type scheme = S.t
  type handle = S.handle

  let unsupported =
    if S.counts_references then
      Some
        "EFRBTree with reference counting needs weak pointers to break \
         descriptor cycles (paper footnote 12)"
    else None

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
    let s_rec = Tagged.sentinel (Tagged.make s) in
    let r =
      mk_node stats ~key:inf2 ~value:None ~kind:Internal
        ~left:(Tagged.raw s_rec)
        ~right:(Tagged.make (leaf inf2))
    in
    { scheme; root = r; s_rec }

  let scheme t = t.scheme
  let stats t = S.stats t.scheme

  let make_local handle =
    {
      handle;
      hp_gp = S.guard handle;
      hp_p = S.guard handle;
      hp_l = S.guard handle;
      hp_cur = S.guard handle;
    }

  let clear_local l =
    S.release l.hp_gp;
    S.release l.hp_p;
    S.release l.hp_l;
    S.release l.hp_cur

  let child_link n key = if key < n.key then n.left else n.right

  let invalidate_nodes nodes =
    List.iter
      (fun n ->
        Link.mark_invalid n.left;
        Link.mark_invalid n.right)
      nodes

  (* HelpInsert: swing p's child from the old leaf to the new internal node,
     then unflag. The new internal node holds a copy of the old leaf, not
     the leaf itself (Ellen et al.'s newSibling), so the winning CAS
     unlinks and retires the old leaf, and no link ever holds it again. A
     clean link is the node itself, so reusing the leaf would let a
     delete of the new leaf splice the old one back into p's child; a
     helper stalled before this CAS would then find its expected value
     again and re-link the retired internal node. The leaf has no
     children, so the unlink has no frontier. *)
  let help_insert l (op : 'v iinfo) iflag_rec =
    ignore
      (S.try_unlink l.handle ~frontier:[]
         ~do_unlink:(fun () ->
           if
             Link.cas_clean op.i_l_link op.i_l_rec
               (Tagged.make op.i_new_internal)
           then Some [ op.i_l ]
           else None)
         ~node_header:Mem.of_node ~invalidate:invalidate_nodes);
    ignore (Atomic.compare_and_set op.i_p.update iflag_rec (fresh_clean ()))

  (* HelpMarked: splice out [d_p] and [d_l]; the sibling subtree root is the
     unlink frontier. Exactly one helper's CAS wins and retires both nodes;
     everyone then unflags the grandparent. *)
  let help_marked l (op : 'v dinfo) dflag_rec =
    let p = op.d_p in
    let sibling_link =
      if Tagged.same_ptr (Link.get p.left) (Tagged.make op.d_l) then p.right
      else p.left
    in
    let sib_rec = Link.get sibling_link in
    (match Tagged.shape sib_rec with
    | Tagged.Null -> ()
    | Tagged.Ptr ->
        ignore
          (S.try_unlink l.handle
             ~frontier:[ Tagged.header sib_rec ]
             ~do_unlink:(fun () ->
               if
                 Link.cas_clean op.d_gp_link op.d_gp_rec
                   (Tagged.untagged sib_rec)
               then Some [ op.d_p; op.d_l ]
               else None)
             ~node_header:Mem.of_node ~invalidate:invalidate_nodes));
    ignore (Atomic.compare_and_set op.d_gp.update dflag_rec (fresh_clean ()))

  (* HelpDelete: mark p (or recognize our own mark), then splice; on
     interference, help the blocker and roll the DFlag back. Returns whether
     the delete completed. *)
  let rec help_delete l (op : 'v dinfo) dflag_rec =
    let mark_rec = { state = Mark; info = Some (D op); gen = 0 } in
    if Atomic.compare_and_set op.d_p.update op.d_pupdate mark_rec then begin
      help_marked l op dflag_rec;
      true
    end
    else
      let current = Atomic.get op.d_p.update in
      match (current.state, current.info) with
      | Mark, Some (D o) when o == op ->
          help_marked l op dflag_rec;
          true
      | _ ->
          help l current;
          ignore (Atomic.compare_and_set op.d_gp.update dflag_rec (fresh_clean ()));
          false

  and help l (u : 'v update) =
    match (u.state, u.info) with
    | IFlag, Some (I op) -> help_insert l op u
    | Mark, Some (D op) -> help_marked l op u
    | DFlag, Some (D op) -> ignore (help_delete l op u)
    | _ -> ()

  (* Search: descend to a leaf, recording grandparent/parent, their update
     fields, and the child records needed for the CASes. The sentinel
     structure guarantees at least two internal nodes above any leaf.

     The guards ride along as arguments: [g_gp], [g_p] and [g_l] protect
     gp, p and the current node, and [g_cur] is free for its child; a step
     maps (gp, p, l, cur) to (p, l, cur, gp). R and S need no slot: a
     delete splices out a user leaf and its parent, and every user leaf
     hangs below S.left, so neither sentinel is ever retired. The walk
     starts at S as the node below R; S is internal, so the first step
     drops the first call's stand-in grandparent arguments. *)
  let search t l key =
    let rec walk g_gp g_p g_l g_cur gp p gpupdate pupdate p_rec p_link cur_s
        cur_link =
      let cur_rec = Tagged.raw cur_s in
      match Tagged.shape cur_rec with
      | Tagged.Null -> `Retry
      | Tagged.Ptr ->
          let cur = Tagged.node cur_s in
          Mem.check_access (Mem.of_node cur);
          if cur.kind = Leaf then
            `Done
              {
                s_gp = gp;
                s_p = p;
                s_l = cur;
                s_gpupdate = gpupdate;
                s_pupdate = pupdate;
                s_p_rec = p_rec;
                s_p_link = p_link;
                s_l_rec = cur_rec;
                s_l_link = cur_link;
              }
          else
            let up = Atomic.get cur.update in
            let link = child_link cur key in
            let expected = Link.get link in
            (* Optimistic schemes use HP++ TryProtect. HP validates with the
               over-approximation "[cur] is not marked for splicing and the
               link is unchanged" (a marked node is about to be spliced out
               together with one child, whose edge from it never moves).
               Both tests must pass before the step is traced as validated:
               [protect_pessimistic] would trace the link test alone, and
               record a validated protection of a freed leaf whenever the
               mark test then fails. *)
            if S.supports_optimistic then
              let next_s =
                C.try_protect ~src:(Mem.of_node cur) g_cur l.handle
                  ~src_link:link expected
              in
              if Tagged.is_invalid (Tagged.raw next_s) then `Prot
              else
                walk g_p g_l g_cur g_gp p cur pupdate up cur_rec cur_link
                  next_s link
            else begin
              (match Tagged.shape expected with
              | Tagged.Ptr -> C.protect g_cur (Tagged.header expected)
              | Tagged.Null -> ());
              if
                C.protection_valid l.handle
                && (Atomic.get cur.update).state <> Mark
                && Tagged.same_ptr (Link.get link) expected
              then begin
                if Trace.enabled () then
                  C.trace_step ~src:(Mem.of_node cur) ~validated:true
                    expected;
                walk g_p g_l g_cur g_gp p cur pupdate up cur_rec cur_link
                  (Tagged.validated expected) link
              end
              else begin
                Trace.emit Trace.Validation_fail
                  (Mem.uid (Mem.of_node cur)) 0 0;
                `Prot
              end
            end
    in
    let r = t.root in
    let r_up = Atomic.get r.update in
    walk l.hp_gp l.hp_p l.hp_l l.hp_cur r r r_up r_up (Tagged.raw t.s_rec)
      r.left t.s_rec r.left

  let get t l key =
    if key >= inf1 then invalid_arg "Efrbtree: key too large";
    C.with_crit l.handle (stats t) (fun () ->
        match search t l key with
        | (`Prot | `Retry) as r -> r
        | `Done sr ->
            if sr.s_l.key = key then `Done sr.s_l.value else `Done None)

  let insert t l key value =
    if key >= inf1 then invalid_arg "Efrbtree: key too large";
    C.with_crit l.handle (stats t) (fun () ->
        match search t l key with
        | (`Prot | `Retry) as r -> r
        | `Done sr ->
            if sr.s_l.key = key then `Done false
            else if sr.s_pupdate.state <> Clean then begin
              help l sr.s_pupdate;
              `Retry
            end
            else begin
              let st = stats t in
              let leaf = sr.s_l in
              let new_leaf =
                mk_node st ~key ~value:(Some value) ~kind:Leaf
                  ~left:Tagged.null ~right:Tagged.null
              in
              let sibling =
                mk_node st ~key:leaf.key ~value:leaf.value ~kind:Leaf
                  ~left:Tagged.null ~right:Tagged.null
              in
              let lo_leaf, hi_leaf =
                if key < leaf.key then (new_leaf, sibling)
                else (sibling, new_leaf)
              in
              let internal =
                mk_node st ~key:(max key leaf.key) ~value:None ~kind:Internal
                  ~left:(Tagged.make lo_leaf)
                  ~right:(Tagged.make hi_leaf)
              in
              let op =
                {
                  i_p = sr.s_p;
                  i_l = leaf;
                  i_l_rec = sr.s_l_rec;
                  i_l_link = sr.s_l_link;
                  i_new_internal = internal;
                }
              in
              let iflag_rec = { state = IFlag; info = Some (I op); gen = 0 } in
              if Atomic.compare_and_set sr.s_p.update sr.s_pupdate iflag_rec
              then begin
                help_insert l op iflag_rec;
                `Done true
              end
              else begin
                Mem.discard st (Mem.of_node new_leaf);
                Mem.discard st (Mem.of_node sibling);
                Mem.discard st (Mem.of_node internal);
                help l (Atomic.get sr.s_p.update);
                `Retry
              end
            end)

  let remove t l key =
    if key >= inf1 then invalid_arg "Efrbtree: key too large";
    C.with_crit l.handle (stats t) (fun () ->
        match search t l key with
        | (`Prot | `Retry) as r -> r
        | `Done sr ->
            if sr.s_l.key <> key then `Done false
            else if sr.s_gpupdate.state <> Clean then begin
              help l sr.s_gpupdate;
              `Retry
            end
            else if sr.s_pupdate.state <> Clean then begin
              help l sr.s_pupdate;
              `Retry
            end
            else begin
              let op =
                {
                  d_gp = sr.s_gp;
                  d_p = sr.s_p;
                  d_l = sr.s_l;
                  d_pupdate = sr.s_pupdate;
                  d_gp_rec = sr.s_p_rec;
                  d_gp_link = sr.s_p_link;
                }
              in
              let dflag_rec = { state = DFlag; info = Some (D op); gen = 0 } in
              if Atomic.compare_and_set sr.s_gp.update sr.s_gpupdate dflag_rec
              then
                if help_delete l op dflag_rec then `Done true else `Retry
              else begin
                help l (Atomic.get sr.s_gp.update);
                `Retry
              end
            end)

  (* Quiescent helpers. *)

  let to_list t =
    let rec walk n acc =
      match n.kind with
      | Leaf ->
          if n.key >= inf1 then acc else (n.key, Option.get n.value) :: acc
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
