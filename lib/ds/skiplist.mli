(** Lock-free skiplist; towers unlink level by level, node retired once unlinked from the bottom level.

    Signature inferred from the implementation; the full surface stays
    exported because the harness, tests and sibling modules consume the
    node representations directly. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Stats = Smr_core.Stats
module Rng = Smr_core.Rng
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
      val max_height : int
      type 'v node = {
        key : int;
        mutable hdr : Mem.cell;
        value : 'v;
        next : 'v node Link.t array;
        remaining : int Atomic.t;
      }
      val height : 'a node -> int
      type 'v pred = { links : 'v node Link.t array; node : 'v node option; }
      type 'v t = { scheme : S.t; head : 'v node Link.t array; }
      type local = {
        handle : S.handle;
        rng : Rng.t;
        hp_pred : S.guard;
        hp_cur : S.guard;
        pred_guards : S.guard array;
        target_guard : S.guard;
      }
      val create : S.t -> 'a t
      val scheme : 'a t -> S.t
      val stats : 'a t -> Smr_core.Stats.t
      val locals_seed : int Atomic.t
      val make_local : S.handle -> local
      val clear_local : local -> unit
      val random_height : local -> int
      val invalidate_level : 'a node -> int -> 'b -> unit
      val snip :
        local ->
        pred_links:'a node Link.t array ->
        lvl:int ->
        cur:'b node ->
        cur_t:'a node Smr_core.Tagged.t ->
        next_t:'a node Tagged.t -> 'a node Tagged.t option
      val give_up_levels : local -> 'a node -> from_level:int -> unit
      val find_attempt :
        'a t ->
        local ->
        int ->
        [> `Done of
             bool * 'a pred array * 'a node Tagged.t array *
             'a node option array
         | `Prot
         | `Retry ]
      val link_upper : 'a t -> local -> 'a node -> unit
      val get_optimistic :
        'a t -> local -> int -> [> `Done of 'a option | `Prot ]
      val get : 'a t -> local -> int -> 'a option
      val insert : 'a t -> local -> int -> 'a -> bool
      val remove : 'a t -> local -> int -> bool
      val to_list : 'a t -> (int * 'a) list
      val size : 'a t -> int
      val assert_reachable_not_freed : 'a t -> unit
    end
