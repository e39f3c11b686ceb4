(** External Bonsai balanced tree (paper §5): weight-balanced BST whose updates rebuild a path copy and retire the replaced subtree in one batch.

    Signature inferred from the implementation; the full surface stays
    exported because the harness, tests and sibling modules consume the
    node representations directly. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Stats = Smr_core.Stats
module Make :
  functor (S : Smr.Smr_intf.S) ->
    sig
      module C :
        sig
          val uid_of_hdr : Ds_common.Mem.header -> int
          val trace_step :
            src:Ds_common.Mem.header ->
            validated:bool -> 'a Ds_common.Tagged.t -> unit
          val try_protect :
            src:Ds_common.Mem.header ->
            S.guard ->
            S.handle ->
            src_link:'a Ds_common.Link.t ->
            'a Ds_common.Tagged.t -> 'a Ds_common.Tagged.t
          val protect_pessimistic :
            src:Ds_common.Mem.header ->
            S.guard ->
            S.handle ->
            src_link:'a Ds_common.Link.t ->
            'a Ds_common.Tagged.t -> bool
          val with_crit :
            S.handle ->
            Smr_core.Stats.t ->
            (unit -> [< `Done of 'a | `Prot | `Retry ]) -> 'a
        end
      type 'v node = {
        key : int;
        mutable hdr : Mem.cell;
        value : 'v;
        left : 'v node option;
        right : 'v node option;
        size : int;
        invalid : bool Atomic.t;
      }
      type 'v t = { scheme : S.t; root : 'v node Link.t; }
      type local = {
        handle : S.handle;
        hp_parent : S.guard;
        hp_child : S.guard;
        mutable upd_guards : S.guard list;
        mutable upd_used : S.guard list;
      }
      exception Restart
      val create : S.t -> 'a t
      val scheme : 'a t -> S.t
      val stats : 'a t -> Smr_core.Stats.t
      val make_local : S.handle -> local
      val clear_local : local -> unit
      type 'v ctx = {
        root_rec : 'v node Tagged.t;
        mutable replaced : 'v node list;
        mutable created : 'v node list;
        mutable pending_incrs : ('v node * Mem.header) list;
        mutable scrapped : 'v node list;
      }
      val take_guard : local -> S.guard
      val put_guard : local -> S.guard -> unit
      val reset_guards : local -> unit
      val guard_old : 'a t -> local -> 'a ctx -> 'b node -> unit
      val root_of : 'a Tagged.t -> 'a option
      val node_size : 'a node option -> int
      val weight : 'a node option -> int
      val mk :
        'a ctx ->
        is_old:('a node -> bool) ->
        key:int ->
        value:'a ->
        left:'a node option ->
        right:'a node option -> Smr_core.Stats.t -> 'a node
      val consume : 'a ctx -> 'a node -> unit
      val scrap : 'a ctx -> 'a node -> unit
      val delta : int
      val ratio : int
      val rebalance :
        'a t ->
        local ->
        'a ctx ->
        Smr_core.Stats.t ->
        is_old:('a node -> bool) ->
        key:int ->
        value:'a -> left:'a node option -> right:'a node option -> 'a node
      val update :
        'v t ->
        local ->
        noop:'a ->
        ('v ctx ->
         is_old:('v node -> bool) ->
         'v node Tagged.t -> ('v node option * 'a) option) ->
        'a
      val insert : 'a t -> local -> int -> 'a -> bool
      val remove : 'a t -> local -> int -> bool
      val root_src : bool Atomic.t
      val protect_read :
        'a t ->
        local ->
        S.guard ->
        root_rec:'a node Tagged.t -> src:bool Atomic.t -> 'b node -> unit
      val get : 'a t -> local -> int -> 'a option
      val fold : 'a t -> local -> init:'b -> f:('b -> int -> 'a -> 'b) -> 'b
      val to_list : 'a t -> (int * 'a) list
      val size_quiescent : 'a t -> int
      val size : 'a t -> int
      val assert_reachable_not_freed : 'a t -> unit
      val assert_balanced : 'a t -> unit
    end
