(** Natarajan-Mittal external BST: edge-flagging with a spliced routing path retired per remove.

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
      val flag_bit : int
      val tag_bit : int
      val is_flagged : 'a Tagged.t -> bool
      val is_tagged : 'a Tagged.t -> bool
      val inf1 : int
      val inf2 : int
      type kind = Leaf | Internal
      type 'v node = {
        key : int;
        mutable hdr : Mem.cell;
        value : 'v option;
        kind : kind;
        left : 'v node Link.t;
        right : 'v node Link.t;
      }
      type 'v t = { scheme : S.t; root : 'v node; s : 'v node; }
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
      val mk_node :
        Smr_core.Stats.t ->
        key:int ->
        value:'a option ->
        kind:kind ->
        left:'a node Smr_core.Tagged.t ->
        right:'a node Smr_core.Tagged.t -> 'a node
      val create : S.t -> 'a t
      val scheme : 'a t -> S.t
      val stats : 'a t -> Smr_core.Stats.t
      val make_local : S.handle -> local
      val clear_local : local -> unit
      val child_link : 'a node -> int -> 'a node Link.t
      val seek :
        'a t -> local -> int -> [> `Done of 'a seek_record | `Prot | `Retry ]
      val invalidate_nodes : 'a node list -> unit
      val collect_spliced : 'a node -> int -> 'a node list
      val cleanup : local -> int -> 'v seek_record -> bool
      val get : 'a t -> local -> int -> 'a option
      val insert : 'a t -> local -> int -> 'a -> bool
      val remove : 'a t -> local -> int -> bool
      val to_list : 'a t -> (int * 'a) list
      val size : 'a t -> int
      val assert_reachable_not_freed : 'a t -> unit
    end
