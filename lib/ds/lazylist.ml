(** Lazy list (Heller, Herlihy, Luchangco, Moir, Scherer, Shavit, OPODIS
    2006): a lock-based sorted list with lock-free wait-free membership —
    the first row of the paper's Table 2.

    Updates lock the two affected nodes and validate under the locks;
    [contains] traverses with no locks at all, walking through marked nodes
    (optimistic traversal), which makes the structure inapplicable to the
    original HP. With HP++ it is the paper's showcase for {e lock-based}
    recovery (§4.2): operations are access-aware — a read phase that writes
    nothing followed by a write phase under locks — so a protection failure
    can only happen in the read phase, where restarting is trivial; once
    the locks are held, the locked nodes cannot be invalidated and
    protection cannot fail. *)

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
    marked : bool Atomic.t; (* logical deletion, separate from the link *)
    lock : Mutex.t;
  }

  type 'v t = {
    scheme : S.t;
    head_link : 'v node Link.t;
    head_lock : Mutex.t;
  }

  (* An update's predecessor: the head sentinel (never marked, locked via
     the structure) or a real node. *)
  type 'v pred = Head | Node of 'v node

  let pred_link t = function Head -> t.head_link | Node n -> Link.of_node n
  let pred_lock t = function Head -> t.head_lock | Node n -> n.lock
  let pred_marked = function Head -> false | Node n -> Atomic.get n.marked

  type local = {
    handle : S.handle;
    hp_prev : S.guard;
    hp_cur : S.guard;
  }

  type scheme = S.t
  type handle = S.handle

  let unsupported =
    if S.supports_optimistic then None
    else
      Some
        ("the lazy list's wait-free contains walks marked nodes, which "
       ^ S.name ^ " cannot protect (paper Table 2)")

  let create scheme =
    Option.iter
      (fun m -> raise (Smr.Smr_intf.Unsupported_scheme m))
      unsupported;
    { scheme; head_link = Link.null (); head_lock = Mutex.create () }

  let scheme t = t.scheme
  let stats t = S.stats t.scheme

  let make_local handle =
    { handle; hp_prev = S.guard handle; hp_cur = S.guard handle }

  let clear_local l =
    S.release l.hp_prev;
    S.release l.hp_cur

  (* Read phase: walk (through marked nodes) to the first node with
     key >= [key]. Protection is hand-over-hand HP++-style; the sentinel
     needs no protection; [gprev] and [gcur] swap roles at each step.
     Returns the predecessor and the candidate. Steps trace no source
     node. *)
  let walk t l key =
    let rec go gprev gcur prev cur_t =
      let cur_s =
        C.try_protect ~src:Mem.phantom gcur l.handle
          ~src_link:(pred_link t prev) cur_t
      in
      let cur_t = Tagged.raw cur_s in
      if Tagged.is_invalid cur_t then `Prot
      else
        match Tagged.shape cur_t with
        | Tagged.Null -> `Done (prev, None)
        | Tagged.Ptr ->
            let cur = Tagged.node cur_s in
            Mem.check_access (Mem.of_node cur);
            if cur.key >= key then `Done (prev, Some cur)
            else go gcur gprev (Node cur) (Link.get (Link.of_node cur))
    in
    go l.hp_prev l.hp_cur Head (Link.get t.head_link)

  let contains t l key =
    C.with_crit l.handle (stats t) (fun () ->
        match walk t l key with
        | `Prot -> `Prot
        | `Done (_, Some cur) when cur.key = key ->
            `Done
              (if Atomic.get cur.marked then None else Some cur.value)
        | `Done _ -> `Done None)

  let get = contains

  (* Write phase helper: lock pred then cur (list order — a consistent
     order, so no deadlock) and validate the Heller conditions. Locked,
     unmarked nodes cannot be invalidated (only unlinked nodes are, and
     unlinking requires the locks), so protection cannot fail from here
     on. *)
  let validated t ~pred ~cur f =
    Mutex.lock (pred_lock t pred);
    (match cur with Some c -> Mutex.lock c.lock | None -> ());
    let ok =
      (not (pred_marked pred))
      && (match cur with Some c -> not (Atomic.get c.marked) | None -> true)
      && Tagged.same_ptr (Link.get (pred_link t pred)) (Tagged.of_option cur)
    in
    let result = if ok then Some (f ()) else None in
    (match cur with Some c -> Mutex.unlock c.lock | None -> ());
    Mutex.unlock (pred_lock t pred);
    result

  let insert t l key value =
    let fresh = ref None in
    C.with_crit l.handle (stats t) (fun () ->
        match walk t l key with
        | `Prot -> `Prot
        | `Done (pred, cur) -> (
            match cur with
            | Some c when c.key = key ->
                (match !fresh with
                | Some n -> Mem.discard (stats t) (Mem.of_node n)
                | None -> ());
                `Done false
            | _ -> (
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
                          marked = Atomic.make false;
                          lock = Mutex.create ();
                        }
                      in
                      fresh := Some n;
                      n
                in
                match
                  validated t ~pred ~cur (fun () ->
                      Link.set (Link.of_node node) (Tagged.of_option cur);
                      Link.set (pred_link t pred) (Tagged.make node))
                with
                | Some () -> `Done true
                | None -> `Retry)))

  let remove t l key =
    C.with_crit l.handle (stats t) (fun () ->
        match walk t l key with
        | `Prot -> `Prot
        | `Done (_, None) -> `Done false
        | `Done (pred, Some cur) ->
            if cur.key <> key then `Done false
            else if Atomic.get cur.marked then `Done false
            else (
              match
                validated t ~pred ~cur:(Some cur) (fun () ->
                    (* logical deletion: the linearization point *)
                    Atomic.set cur.marked true;
                    (* physical deletion under the locks cannot fail, so
                       do_unlink always succeeds; the frontier is cur's
                       successor, invalidated flag on cur's link. *)
                    let next_t = Link.get (Link.of_node cur) in
                    let frontier =
                      match Tagged.shape next_t with
                      | Tagged.Ptr -> [ Tagged.header next_t ]
                      | Tagged.Null -> []
                    in
                    ignore
                      (S.try_unlink l.handle ~frontier
                         ~do_unlink:(fun () ->
                           Link.set (pred_link t pred)
                             (Tagged.untagged next_t);
                           Some [ cur ])
                         ~node_header:Mem.of_node
                         ~invalidate:
                           (List.iter (fun n ->
                                Link.mark_invalid (Link.of_node n)))))
              with
              | Some () -> `Done true
              | None -> `Retry))

  (* Quiescent helpers. *)

  let to_list t =
    let rec go acc tg =
      match Tagged.shape (Tagged.raw tg) with
      | Tagged.Null -> List.rev acc
      | Tagged.Ptr ->
          let n = Tagged.node tg in
          let acc =
            if Atomic.get n.marked then acc else (n.key, n.value) :: acc
          in
          go acc (Link.get_quiescent (Link.of_node n))
    in
    go [] (Link.get_quiescent t.head_link)

  let size t = List.length (to_list t)

  let assert_reachable_not_freed t =
    let rec go tg =
      match Tagged.shape (Tagged.raw tg) with
      | Tagged.Null -> ()
      | Tagged.Ptr ->
          let n = Tagged.node tg in
          assert (not (Mem.is_freed (Mem.of_node n)));
          go (Link.get_quiescent (Link.of_node n))
    in
    go (Link.get_quiescent t.head_link)
end
