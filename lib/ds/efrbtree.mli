(** Ellen et al. non-blocking external BST with helping via update descriptors (IFlag/DFlag/Mark).

    Signature inferred from the implementation; the full surface stays
    exported because the harness, tests and sibling modules consume the
    node representations directly. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Stats = Smr_core.Stats
module Trace = Obs.Trace
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
      val inf1 : int
      val inf2 : int
      type kind = Leaf | Internal
      type state = Clean | IFlag | DFlag | Mark
      type 'v update = { state : state; info : 'v info option; gen : int; }
      and 'v info = I of 'v iinfo | D of 'v dinfo
      and 'v iinfo = {
        i_p : 'v node;
        i_l_rec : 'v node Tagged.t;
        i_l_link : 'v node Link.t;
        i_new_internal : 'v node;
      }
      and 'v dinfo = {
        d_gp : 'v node;
        d_p : 'v node;
        d_l : 'v node;
        d_pupdate : 'v update;
        d_gp_rec : 'v node Tagged.t;
        d_gp_link : 'v node Link.t;
      }
      and 'v node = {
        key : int;
        mutable hdr : Mem.cell;
        value : 'v option;
        kind : kind;
        left : 'v node Link.t;
        right : 'v node Link.t;
        update : 'v update Atomic.t;
      }
      val clean_gen : int Atomic.t
      val fresh_clean : unit -> 'a update
      val clean_update : 'a update
      type 'v t = {
        scheme : S.t;
        root : 'v node;
        s_rec : 'v node Tagged.t;
      }
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
        s_p_rec : 'v node Tagged.t;
        s_p_link : 'v node Link.t;
        s_l_rec : 'v node Tagged.t;
        s_l_link : 'v node Link.t;
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
      val invalidate_nodes : 'a node list -> unit
      val help_insert : 'v iinfo -> 'v update -> unit
      val help_marked : local -> 'v dinfo -> 'v update -> unit
      val help_delete : local -> 'v dinfo -> 'v update -> bool
      val help : local -> 'v update -> unit
      val search :
        'a t ->
        local -> int -> [> `Done of 'a search_result | `Prot | `Retry ]
      val get : 'a t -> local -> int -> 'a option
      val insert : 'a t -> local -> int -> 'a -> bool
      val remove : 'a t -> local -> int -> bool
      val to_list : 'a t -> (int * 'a) list
      val size : 'a t -> int
      val assert_reachable_not_freed : 'a t -> unit
    end
