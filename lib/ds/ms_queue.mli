(** Michael-Scott queue; dequeue retires the old dummy node.

    Signature inferred from the implementation; the full surface stays
    exported because the harness, tests and sibling modules consume the
    node representations directly. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
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
        mutable next : 'v node Link.cell;
        mutable hdr : Mem.cell;
        value : 'v option;
      }
      type 'v t = {
        scheme : S.t;
        head : 'v node Link.t;
        tail : 'v node Link.t;
      }
      type local = {
        handle : S.handle;
        hp_head : S.guard;
        hp_next : S.guard;
      }
      val create : S.t -> 'a t
      val scheme : 'a t -> S.t
      val stats : 'a t -> Smr_core.Stats.t
      val make_local : S.handle -> local
      val clear_local : local -> unit
      val enqueue : 'a t -> local -> 'a -> unit
      val dequeue : 'a t -> local -> 'a option
      val to_list : 'a t -> 'a list
      val length : 'a t -> int
    end
