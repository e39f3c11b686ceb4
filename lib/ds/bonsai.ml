(** Bonsai tree (Clements et al., ASPLOS 2012), non-blocking variant: a
    weight-balanced search tree with immutable nodes, updated by copying the
    affected path and swinging a single root pointer with CAS.

    This is the paper's odd duck among the seven benchmark structures:
    - an update retires the whole replaced path in one [try_unlink] with an
      {e empty frontier} — the unlinked nodes' children are either fellow
      unlinked nodes or shared subtrees still reachable from the new root —
      so "HP++ does not incur any overhead" (paper §5);
    - the original HP can only validate a protection against the root
      pointer, so {e any} concurrent update aborts an HP read;
    - reference counting pays for every shared-subtree link created by path
      copying ([incr_ref]) and must cascade destruction through
      [retire_with_children] — the paper's explanation for RC's poor Bonsai
      throughput.

    Updates validate against the root for every scheme (a Bonsai update is a
    read phase plus one CAS — access-aware in the paper's sense); reads use
    the scheme's own protection. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Stats = Smr_core.Stats

module Make (S : Smr.Smr_intf.S) = struct
  module C = Ds_common.Make (S)

  (* [hdr] is the node's embedded header word: field 1 and mutable, read
     and written only through [Mem.of_node]. *)
  type 'v node = {
    key : int;
    mutable hdr : Mem.cell;
    value : 'v;
    left : 'v node option;
    right : 'v node option;
    size : int;
    invalid : bool Atomic.t;
  }

  type 'v t = { scheme : S.t; root : 'v node Link.t }

  type local = {
    handle : S.handle;
    hp_parent : S.guard;
    hp_child : S.guard;
    mutable upd_guards : S.guard list;
    mutable upd_used : S.guard list;
  }

  exception Restart

  type scheme = S.t
  type handle = S.handle

  let unsupported = None

  let create scheme = { scheme; root = Link.null () }
  let scheme t = t.scheme
  let stats t = S.stats t.scheme

  let make_local handle =
    {
      handle;
      hp_parent = S.guard handle;
      hp_child = S.guard handle;
      upd_guards = [];
      upd_used = [];
    }

  let clear_local l =
    S.release l.hp_parent;
    S.release l.hp_child;
    List.iter S.release l.upd_guards;
    List.iter S.release l.upd_used

  (* --- update-side machinery -------------------------------------------- *)

  (* Per-operation context: the root record the rebuild started from, the
     old nodes it replaces, and the new nodes it creates. *)
  type 'v ctx = {
    root_rec : 'v node Tagged.t;
    mutable replaced : 'v node list;
    mutable created : 'v node list;
    mutable pending_incrs : ('v node * Mem.header) list;
        (* (creator, old child): new links to surviving old subtrees,
           counted at commit only for creators that made it into the new
           tree *)
    mutable scrapped : 'v node list;
        (* nodes created by this op and then deconstructed by a rotation:
           they belong to neither tree *)
  }

  let take_guard l =
    match l.upd_guards with
    | g :: rest ->
        l.upd_guards <- rest;
        l.upd_used <- g :: l.upd_used;
        g
    | [] ->
        let g = S.guard l.handle in
        l.upd_used <- g :: l.upd_used;
        g

  (* Hand back the most recently taken guard, withdrawing its protection. *)
  let put_guard l g =
    S.release g;
    l.upd_used <- List.tl l.upd_used;
    l.upd_guards <- g :: l.upd_guards

  let reset_guards l =
    List.iter S.release l.upd_used;
    l.upd_guards <- List.rev_append l.upd_used l.upd_guards;
    l.upd_used <- []

  (* Protect an old node touched by the rebuild. The validation is the
     root-pointer over-approximation: if the root moved, our CAS is doomed
     anyway, so restart. *)
  let guard_old t l ctx n =
    if S.needs_protection then begin
      let g = take_guard l in
      C.protect g (Mem.of_node n);
      if not (C.protection_valid l.handle) then raise Restart;
      if not (Link.get t.root == ctx.root_rec) then raise Restart
    end;
    Mem.check_access (Mem.of_node n)

  (* The root link's target in the option shape the tree's own child
     fields use. *)
  let root_of r =
    match Tagged.shape (Tagged.raw r) with
    | Tagged.Ptr -> Some (Tagged.node r)
    | Tagged.Null -> None

  (* The target of the root record an operation starts from. Bonsai
     validates per node, not per link: [guard_old] and [protect_read]
     protect a node and make the root check before any of its fields is
     read, so here the root's target is only named. *)
  let read_root root_rec = root_of (Tagged.validated root_rec)

  let node_size = function None -> 0 | Some n -> n.size
  let weight n = node_size n + 1

  (* Create a new node; links it gives to surviving old subtrees are queued
     for reference counting at commit time. New children need no count: they
     were born with refcount 1 — this very link. *)
  let mk ctx ~is_old ~key ~value ~left ~right stats_ =
    let n =
      {
        hdr = Mem.cell stats_;
        key;
        value;
        left;
        right;
        size = node_size left + node_size right + 1;
        invalid = Atomic.make false;
      }
    in
    ctx.created <- n :: ctx.created;
    if S.counts_references then begin
      let count_child = function
        | Some c when is_old c ->
            ctx.pending_incrs <- (n, Mem.of_node c) :: ctx.pending_incrs
        | _ -> ()
      in
      count_child left;
      count_child right
    end;
    n

  (* Deconstruct an old node: it will not appear in the new tree. *)
  let consume ctx n = ctx.replaced <- n :: ctx.replaced

  (* Deconstruct a node this very operation created: it appears in neither
     tree, so it must not be retired, and the links it queued for reference
     counting never materialize. *)
  let scrap ctx n = ctx.scrapped <- n :: ctx.scrapped

  (* Adams-style weight-balanced rebalancing (delta = 3, ratio = 2): called
     on a subtree whose one side changed by at most one element. All nodes
     passed in are new copies or shared subtrees; restructuring an old
     shared child consumes it. *)
  let delta = 3
  let ratio = 2

  let rebalance t l ctx st ~is_old ~key ~value ~left ~right =
    let node ~key ~value ~left ~right = mk ctx ~is_old ~key ~value ~left ~right st in
    let read n =
      if is_old n then guard_old t l ctx n;
      n
    in
    if weight left + weight right <= 2 then node ~key ~value ~left ~right
    else if weight right > delta * weight left then begin
      (* right too heavy *)
      let r = read (Option.get right) in
      if is_old r then consume ctx r else scrap ctx r;
      let rl = Option.map read r.left and rr = Option.map read r.right in
      if weight rl < ratio * weight rr then
        (* single left rotation *)
        node ~key:r.key ~value:r.value
          ~left:(Some (node ~key ~value ~left ~right:rl))
          ~right:rr
      else begin
        (* double rotation: pull up r.left *)
        let rl = Option.get rl in
        if is_old rl then consume ctx rl else scrap ctx rl;
        node ~key:rl.key ~value:rl.value
          ~left:(Some (node ~key ~value ~left ~right:rl.left))
          ~right:(Some (node ~key:r.key ~value:r.value ~left:rl.right ~right:rr))
      end
    end
    else if weight left > delta * weight right then begin
      let lf = read (Option.get left) in
      if is_old lf then consume ctx lf else scrap ctx lf;
      let ll = Option.map read lf.left and lr = Option.map read lf.right in
      if weight lr < ratio * weight ll then
        node ~key:lf.key ~value:lf.value ~left:ll
          ~right:(Some (node ~key ~value ~left:lr ~right))
      else begin
        let lr = Option.get lr in
        if is_old lr then consume ctx lr else scrap ctx lr;
        node ~key:lr.key ~value:lr.value
          ~left:(Some (node ~key:lf.key ~value:lf.value ~left:ll ~right:lr.left))
          ~right:(Some (node ~key ~value ~left:lr.right ~right))
      end
    end
    else node ~key ~value ~left ~right

  (* One attempted update: [rebuild] maps the protected old tree to a new
     tree (or None when the operation is a no-op). Raises [Restart] when a
     protection fails mid-read. *)
  let update t l ~noop (rebuild : 'v ctx -> is_old:('v node -> bool) -> 'v node option -> ('v node option * 'a) option) =
    let attempt () =
      reset_guards l;
      let root_rec = Link.get t.root in
      let ctx =
        {
          root_rec;
          replaced = [];
          created = [];
          pending_incrs = [];
          scrapped = [];
        }
      in
      (* Old nodes are those not created by this operation. The created list
         is short (O(log n)), so membership by physical scan is fine. *)
      let is_old n = not (List.memq n ctx.created) in
      (* Nodes this attempt made but never published are discarded. *)
      let discard ns =
        List.iter (fun n -> Mem.discard (stats t) (Mem.of_node n)) ns
      in
      match rebuild ctx ~is_old (read_root root_rec) with
      | exception Restart ->
          discard ctx.created;
          raise Restart
      | None -> `Done_noop
      | Some (new_root, result) ->
          let desired = Tagged.of_option new_root in
          (* The unlink frontier: children of replaced nodes that survive
             (the shared subtree roots). A reader standing on a replaced but
             not-yet-invalidated node may still step into them, so they must
             stay protected until the whole batch is invalidated — the
             paper's Figure 6 second scenario, one tree level at a time. *)
          let in_replaced n = List.memq n ctx.replaced in
          let frontier =
            List.concat_map
              (fun n ->
                List.filter_map
                  (function
                    | Some c when not (in_replaced c) -> Some (Mem.of_node c)
                    | _ -> None)
                  [ n.left; n.right ])
              ctx.replaced
          in
          let committed =
            S.try_unlink l.handle ~frontier
              ~do_unlink:(fun () ->
                if Link.cas_clean t.root root_rec desired then
                  Some (if S.counts_references then [] else ctx.replaced)
                else None)
              ~node_header:Mem.of_node
              ~invalidate:(fun _ ->
                List.iter
                  (fun n -> Atomic.set n.invalid true)
                  ctx.replaced)
          in
          if committed then begin
            discard ctx.scrapped;
            if S.counts_references then begin
              (* Count the new tree's links into surviving old subtrees, and
                 the root link if it was transferred to an old node. Links
                 queued by scrapped creators never materialized. Every
                 replaced node except the old root is also decremented by
                 its replaced parent's destruction cascade, so pre-
                 compensate. All increments precede the deferred retires. *)
              List.iter
                (fun (creator, hdr) ->
                  if not (List.memq creator ctx.scrapped) then
                    S.incr_ref hdr)
                ctx.pending_incrs;
              (match new_root with
              | Some nr when is_old nr -> S.incr_ref (Mem.of_node nr)
              | _ -> ());
              List.iter
                (fun z ->
                  if not (Tagged.same_ptr ctx.root_rec (Tagged.make z)) then
                    S.incr_ref (Mem.of_node z))
                ctx.replaced;
              List.iter
                (fun n ->
                  S.retire_with_children l.handle (Mem.of_node n)
                    ~children:(fun () ->
                      List.filter_map (Option.map Mem.of_node)
                        [ n.left; n.right ]))
                ctx.replaced
            end;
            `Committed result
          end
          else begin
            discard ctx.created;
            `Lost
          end
    in
    C.with_crit l.handle (stats t) (fun () ->
        match attempt () with
        | `Committed result -> `Done result
        | `Done_noop -> `Done noop
        | `Lost -> `Retry
        | exception Restart -> `Prot)

  (* --- operations -------------------------------------------------------- *)

  let insert t l key value =
    let st = stats t in
    update t l ~noop:false (fun ctx ~is_old root ->
          let rec go = function
            | None -> Some (mk ctx ~is_old ~key ~value ~left:None ~right:None st)
            | Some n ->
                guard_old t l ctx n;
                if key = n.key then None
                else if key < n.key then (
                  match go n.left with
                  | None -> None
                  | Some left ->
                      consume ctx n;
                      Some
                        (rebalance t l ctx st ~is_old ~key:n.key ~value:n.value
                           ~left:(Some left) ~right:n.right))
                else
                  match go n.right with
                  | None -> None
                  | Some right ->
                      consume ctx n;
                      Some
                        (rebalance t l ctx st ~is_old ~key:n.key ~value:n.value
                           ~left:n.left ~right:(Some right))
          in
          match go root with
          | None -> None
          | Some root -> Some (Some root, true))

  (* Delete: standard BST removal on the copied path; joining two subtrees
     pulls up the minimum of the right side. *)
  let remove t l key =
    let st = stats t in
    update t l ~noop:false (fun ctx ~is_old root ->
          let rec min_node n =
            guard_old t l ctx n;
            match n.left with None -> n | Some c -> min_node c
          in
          (* remove the minimum, returning the new subtree *)
          let rec drop_min n =
            guard_old t l ctx n;
            consume ctx n;
            match n.left with
            | None -> n.right
            | Some c ->
                Some
                  (rebalance t l ctx st ~is_old ~key:n.key ~value:n.value
                     ~left:(drop_min c) ~right:n.right)
          in
          let rec go = function
            | None -> None (* key absent *)
            | Some n -> (
                guard_old t l ctx n;
                if key = n.key then begin
                  consume ctx n;
                  match (n.left, n.right) with
                  | None, r -> Some r
                  | l_, None -> Some l_
                  | l_, Some r ->
                      let succ = min_node r in
                      Some
                        (Some
                           (rebalance t l ctx st ~is_old ~key:succ.key
                              ~value:succ.value ~left:l_ ~right:(drop_min r)))
                end
                else if key < n.key then
                  match go n.left with
                  | None -> None
                  | Some left ->
                      consume ctx n;
                      Some
                        (Some
                           (rebalance t l ctx st ~is_old ~key:n.key
                              ~value:n.value ~left ~right:n.right))
                else
                  match go n.right with
                  | None -> None
                  | Some right ->
                      consume ctx n;
                      Some
                        (Some
                           (rebalance t l ctx st ~is_old ~key:n.key
                              ~value:n.value ~left:n.left ~right)))
          in
          match go root with
          | None -> None
          | Some root -> Some (root, true))

  (* --- read side --------------------------------------------------------- *)

  (* The [src] flag passed for the root, which has no parent. *)
  let root_src = Atomic.make false

  (* Protect [n] into [g] for reading. Optimistic schemes validate with the
     under-approximation "[src], the invalid flag of the node we stepped
     from, is still clear" (all members of an update's replaced set are
     invalidated before any is freed, and a replaced child implies a
     replaced parent in the same set); the root checks its own flag. HP
     falls back to "the root has not moved". *)
  let protect_read t l g ~root_rec ~src n =
    if S.needs_protection then begin
      C.protect g (Mem.of_node n);
      if not (C.protection_valid l.handle) then raise Restart;
      if S.supports_optimistic then begin
        if Atomic.get (if src == root_src then n.invalid else src) then
          raise Restart
      end
      else if not (Link.get t.root == root_rec) then raise Restart
    end;
    Mem.check_access (Mem.of_node n)

  (* [gparent] holds the node we stepped from and [gchild] takes the next;
     a step swaps them. *)
  let get t l key =
    C.with_crit l.handle (stats t) (fun () ->
        let root_rec = Link.get t.root in
        let rec go gparent gchild src = function
          | None -> `Done None
          | Some n ->
              protect_read t l gchild ~root_rec ~src n;
              if key = n.key then `Done (Some n.value)
              else if key < n.key then go gchild gparent n.invalid n.left
              else go gchild gparent n.invalid n.right
        in
        match go l.hp_parent l.hp_child root_src (read_root root_rec) with
        | r -> r
        | exception Restart -> `Prot)

  (* Long-running snapshot read: fold over every binding reachable from one
     root read. Under EBR-family schemes this pins an epoch for the whole
     walk; under HP++ it holds per-node protections and only restarts if a
     node it stands on is invalidated — the paper's Figure 10 workload.
     Each node is protected once, into a pool guard held while both its
     subtrees are walked and handed back after; the pool is last-in
     first-out, so each level reuses one guard. *)
  let fold t l ~init ~f =
    C.with_crit l.handle (stats t) (fun () ->
        let root_rec = Link.get t.root in
        let rec go src acc = function
          | None -> acc
          | Some n ->
              let g = take_guard l in
              protect_read t l g ~root_rec ~src n;
              let acc = go n.invalid acc n.left in
              let acc = f acc n.key n.value in
              let acc = go n.invalid acc n.right in
              put_guard l g;
              acc
        in
        match go root_src init (read_root root_rec) with
        | acc -> `Done acc
        | exception Restart ->
            reset_guards l;
            `Prot)

  (* Quiescent helpers. *)

  let to_list t =
    let rec walk acc = function
      | None -> acc
      | Some n -> walk ((n.key, n.value) :: walk acc n.right) n.left
    in
    walk [] (root_of (Link.get_quiescent t.root))

  let size_quiescent t = node_size (root_of (Link.get_quiescent t.root))
  let size t = size_quiescent t

  let assert_reachable_not_freed t =
    let rec walk = function
      | None -> ()
      | Some n ->
          assert (not (Mem.is_freed (Mem.of_node n)));
          walk n.left;
          walk n.right
    in
    walk (root_of (Link.get_quiescent t.root))

  (* Balance invariant check for tests. *)
  let assert_balanced t =
    let rec walk = function
      | None -> ()
      | Some n ->
          assert (n.size = node_size n.left + node_size n.right + 1);
          if weight n.left + weight n.right > 2 then begin
            assert (weight n.left <= delta * weight n.right);
            assert (weight n.right <= delta * weight n.left)
          end;
          walk n.left;
          walk n.right
    in
    walk (root_of (Link.get_quiescent t.root))
end
