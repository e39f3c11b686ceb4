(** Lock-free skiplist (Herlihy–Shavit), with the wait-free get used by the
    paper for every scheme except HP.

    Towers are arrays of tagged links, one per level, marked independently.
    Physical deletion is per level: any traversal that meets a marked node
    snips that level through [S.try_unlink], with the severed level's
    successor as the frontier and the severed link invalidated in the same
    batch. A tower carries a [remaining] count of levels still linked (plus
    levels its insert still owes); the snip — or the insert giving up its
    unlinked upper levels — that drops the count to zero retires the node.
    This is the multi-link generalization of the paper's chain unlink: each
    level is its own unlink with its own frontier and invalidation flag. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Stats = Smr_core.Stats
module Rng = Smr_core.Rng

module Make (S : Smr.Smr_intf.S) = struct
  module C = Ds_common.Make (S)

  let max_height = 16

  (* [hdr] is the node's embedded header word: field 1 and mutable, read
     and written only through [Mem.of_node]. *)
  type 'v node = {
    key : int;
    mutable hdr : Mem.cell;
    value : 'v;
    next : 'v node Link.t array;
    remaining : int Atomic.t;
  }

  let height n = Array.length n.next

  (* A position above a tower: either the head's link array or a node's. *)
  type 'v pred = { links : 'v node Link.t array; node : 'v node option }

  type 'v t = { scheme : S.t; head : 'v node Link.t array }

  type local = {
    handle : S.handle;
    rng : Rng.t;
    hp_pred : S.guard;
    hp_cur : S.guard;
    pred_guards : S.guard array;
    target_guard : S.guard;
  }

  type scheme = S.t
  type handle = S.handle

  let unsupported = None

  let create scheme =
    { scheme; head = Array.init max_height (fun _ -> Link.null ()) }

  let scheme t = t.scheme
  let stats t = S.stats t.scheme

  let locals_seed = Atomic.make 1

  let make_local handle =
    {
      handle;
      rng = Rng.create ~seed:(Atomic.fetch_and_add locals_seed 1 * 0x9E3779B9);
      hp_pred = S.guard handle;
      hp_cur = S.guard handle;
      pred_guards = Array.init max_height (fun _ -> S.guard handle);
      target_guard = S.guard handle;
    }

  let clear_local l =
    S.release l.hp_pred;
    S.release l.hp_cur;
    Array.iter S.release l.pred_guards;
    S.release l.target_guard

  let random_height l =
    let bits = Int64.to_int (Rng.next l.rng) in
    let rec count h bits =
      if h >= max_height || bits land 1 = 0 then h else count (h + 1) (bits lsr 1)
    in
    count 1 bits

  let invalidate_level n lvl _fully_unlinked = Link.mark_invalid n.next.(lvl)

  (* Sever [cur]'s link at [lvl] out of [pred_links]. The frontier is the
     level's successor; the severed link is invalidated in the deferred
     batch; the tower is retired iff this was its last accounted level. *)
  let snip l ~pred_links ~lvl ~cur ~cur_t ~next_t =
    let desired = Tagged.with_tag next_t 0 in
    let frontier =
      match Tagged.shape next_t with
      | Tagged.Ptr -> [ Tagged.header next_t ]
      | Tagged.Null -> []
    in
    let ok =
      S.try_unlink l.handle ~frontier
        ~do_unlink:(fun () ->
          if Link.cas_clean pred_links.(lvl) cur_t desired then
            Some
              (if Atomic.fetch_and_add cur.remaining (-1) = 1 then [ cur ]
               else [])
          else None)
        ~node_header:Mem.of_node
        ~invalidate:(invalidate_level cur lvl)
    in
    if ok then Some desired else None

  (* An insert that cannot link its upper levels anymore (its node got
     removed, or protection failed after the linearization point) still owes
     the tower's level accounting for them. *)
  let give_up_levels l node ~from_level =
    let owed = height node - from_level in
    if
      owed > 0
      && Atomic.fetch_and_add node.remaining (-owed) = owed
    then
      ignore
        (S.try_unlink l.handle ~frontier:[]
           ~do_unlink:(fun () -> Some [ node ])
           ~node_header:Mem.of_node
           ~invalidate:(fun _ ->
             Array.iter Link.mark_invalid node.next))

  (* One full descent. [`Done (found, preds, pred_ts, succs)] records, per
     level, the last tower strictly before [key], the link record read from
     it, and its successor. *)
  let find_attempt t l key =
    let preds = Array.make max_height { links = t.head; node = None } in
    let pred_ts = Array.make max_height Tagged.null in
    let succs = Array.make max_height None in
    let protect_cur gcur pred_links lvl cur_t =
      if S.supports_optimistic then
        C.try_protect ~src:Mem.phantom gcur l.handle
          ~src_link:pred_links.(lvl) cur_t
      else
        C.protect_pessimistic ~src:Mem.phantom gcur l.handle
          ~src_link:pred_links.(lvl) cur_t
    in
    (* [gcur] protects the node being read, [gpred] the tower whose links
       the walk is reading; they swap at each step right and carry over on
       each step down. *)
    let rec level gpred gcur lvl pred =
      if lvl < 0 then
        `Done
          ( (match succs.(0) with Some c -> c.key = key | None -> false),
            preds,
            pred_ts,
            succs )
      else
        let rec walk gpred gcur pred cur_t =
          let cur_s = protect_cur gcur pred.links lvl cur_t in
          let cur_t = Tagged.raw cur_s in
          if Tagged.is_invalid cur_t then `Prot
          else
            match Tagged.shape cur_t with
            | Tagged.Null -> descend gpred gcur pred cur_t None
            | Tagged.Ptr ->
                let cur = Tagged.node cur_s in
                Mem.check_access (Mem.of_node cur);
                let next_t = Link.get cur.next.(lvl) in
                if Tagged.is_deleted next_t then
                  match
                    snip l ~pred_links:pred.links ~lvl ~cur ~cur_t ~next_t
                  with
                  | Some desired -> walk gpred gcur pred desired
                  | None -> `Retry
                else if cur.key < key then
                  walk gcur gpred { links = cur.next; node = Some cur } next_t
                else descend gpred gcur pred cur_t (Some cur)
        and descend gpred gcur pred cur_t succ =
          preds.(lvl) <- pred;
          pred_ts.(lvl) <- cur_t;
          succs.(lvl) <- succ;
          (match pred.node with
          | Some p -> C.protect l.pred_guards.(lvl) (Mem.of_node p)
          | None -> ());
          level gpred gcur (lvl - 1) pred
        in
        walk gpred gcur pred (Link.get pred.links.(lvl))
    in
    level l.hp_pred l.hp_cur (max_height - 1) { links = t.head; node = None }

  (* Link levels [1 .. height-1] of a freshly inserted [node]; level 0 is
     already linked (the linearization point), so failures here only affect
     level accounting, never the operation's result. *)
  let link_upper t l node =
    let rec level lvl =
      if lvl >= height node then ()
      else
        match find_attempt t l node.key with
        | `Prot ->
            S.crit_refresh l.handle;
            give_up_levels l node ~from_level:lvl
        | `Retry -> level lvl
        | `Done (_, preds, pred_ts, succs) ->
            let still_there =
              match succs.(0) with Some n -> n == node | None -> false
            in
            if not still_there then
              (* the node has already been removed *)
              give_up_levels l node ~from_level:lvl
            else
              let mine = Link.get node.next.(lvl) in
              if Tagged.is_deleted mine then
                give_up_levels l node ~from_level:lvl
              else if
                not
                  (Link.cas_clean node.next.(lvl) mine
                     (Tagged.of_option succs.(lvl)))
              then level lvl (* lost to a concurrent marker: re-check *)
              else if
                Link.cas_clean preds.(lvl).links.(lvl) pred_ts.(lvl)
                  (Tagged.make node)
              then level (lvl + 1)
              else level lvl
    in
    level 1

  (* [links] is the link array of the tower the walk stands on (the head's
     at the start); a step right or down allocates nothing. *)
  let get_optimistic t l key =
    let rec level gpred gcur lvl links cur_t =
      let cur_s =
        C.try_protect ~src:Mem.phantom gcur l.handle
          ~src_link:links.(lvl) cur_t
      in
      let cur_t = Tagged.raw cur_s in
      if Tagged.is_invalid cur_t then `Prot
      else
        match Tagged.shape cur_t with
        | Tagged.Null -> descend gpred gcur lvl links
        | Tagged.Ptr ->
            let cur = Tagged.node cur_s in
            Mem.check_access (Mem.of_node cur);
            let next_t = Link.get cur.next.(lvl) in
            if cur.key < key then level gcur gpred lvl cur.next next_t
            else if cur.key = key && lvl = 0 then
              `Done (if Tagged.is_deleted next_t then None else Some cur.value)
            else if cur.key = key && not (Tagged.is_deleted next_t) then
              `Done (Some cur.value)
            else descend gpred gcur lvl links
    and descend gpred gcur lvl links =
      if lvl = 0 then `Done None
      else level gpred gcur (lvl - 1) links (Link.get links.(lvl - 1))
    in
    level l.hp_pred l.hp_cur (max_height - 1) t.head
      (Link.get t.head.(max_height - 1))

  let get t l key =
    C.with_crit l.handle (stats t) (fun () ->
        if S.supports_optimistic then get_optimistic t l key
        else
          match find_attempt t l key with
          | (`Prot | `Retry) as r -> r
          | `Done (found, _, _, succs) ->
              if not found then `Done None
              else
                let c = Option.get succs.(0) in
                `Done
                  (if Tagged.is_deleted (Link.get c.next.(0)) then None
                   else Some c.value))

  let insert t l key value =
    let fresh = ref None in
    C.with_crit l.handle (stats t) (fun () ->
        match find_attempt t l key with
        | (`Prot | `Retry) as r -> r
        | `Done (found, preds, pred_ts, succs) ->
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
                    let h = random_height l in
                    let n =
                      {
                        hdr = Mem.cell (stats t);
                        key;
                        value;
                        next = Array.init h (fun _ -> Link.null ());
                        remaining = Atomic.make h;
                      }
                    in
                    fresh := Some n;
                    n
              in
              Link.set node.next.(0) (Tagged.of_option succs.(0));
              if
                Link.cas_clean preds.(0).links.(0) pred_ts.(0)
                  (Tagged.make node)
              then begin
                link_upper t l node;
                `Done true
              end
              else `Retry)

  let remove t l key =
    C.with_crit l.handle (stats t) (fun () ->
        match find_attempt t l key with
        | (`Prot | `Retry) as r -> r
        | `Done (found, _, _, succs) ->
            if not found then `Done false
            else begin
              let x = Option.get succs.(0) in
              C.protect l.target_guard (Mem.of_node x);
              (* Mark from the top down; level 0 last — winning its mark CAS
                 is the linearization point and makes us the remover. *)
              for lvl = height x - 1 downto 1 do
                let rec mark () =
                  let r = Link.get x.next.(lvl) in
                  if not (Tagged.is_deleted r) then
                    if
                      not
                        (Link.cas x.next.(lvl) r
                           (Tagged.set_bits r Tagged.deleted_bit))
                    then mark ()
                in
                mark ()
              done;
              let rec mark_bottom () =
                let r = Link.get x.next.(0) in
                if Tagged.is_deleted r then `Done false
                else if
                  Link.cas_clean x.next.(0) r
                    (Tagged.set_bits r Tagged.deleted_bit)
                then begin
                  (* Help unlink: one clean descent snips every level this
                     thread can still see. Other traversals finish the job
                     if ours fails. *)
                  let rec cleanup budget =
                    if budget > 0 then
                      match find_attempt t l key with
                      | `Done _ -> ()
                      | `Prot ->
                          S.crit_refresh l.handle;
                          cleanup (budget - 1)
                      | `Retry -> cleanup (budget - 1)
                  in
                  cleanup 16;
                  `Done true
                end
                else mark_bottom ()
              in
              mark_bottom ()
            end)

  (* Quiescent helpers. *)

  let to_list t =
    let rec walk acc tg =
      match Tagged.shape (Tagged.raw tg) with
      | Tagged.Null -> List.rev acc
      | Tagged.Ptr ->
          let n = Tagged.node tg in
          let next_t = Link.get_quiescent n.next.(0) in
          let acc =
            if Tagged.is_deleted (Tagged.raw next_t) then acc
            else (n.key, n.value) :: acc
          in
          walk acc next_t
    in
    walk [] (Link.get_quiescent t.head.(0))

  let size t = List.length (to_list t)

  let assert_reachable_not_freed t =
    Array.iter
      (fun link ->
        let rec walk tg =
          match Tagged.shape (Tagged.raw tg) with
          | Tagged.Null -> ()
          | Tagged.Ptr ->
              let n = Tagged.node tg in
              assert (not (Mem.is_freed (Mem.of_node n)));
              walk (Link.get_quiescent n.next.(0))
        in
        walk (Link.get_quiescent link))
      t.head
end
