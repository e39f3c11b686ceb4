(** Heller et al. lazy list: lock-based updates, wait-free contains over an optimistic traversal.

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
        mutable next : 'v node Link.cell;
        mutable hdr : Mem.cell;
        key : int;
        value : 'v;
        marked : bool Atomic.t;
        lock : Mutex.t;
      }
      type 'v t = {
        scheme : S.t;
        head_link : 'v node Link.t;
        head_lock : Mutex.t;
      }
      type 'v pred = Head | Node of 'v node
      val pred_link : 'a t -> 'a pred -> 'a node Link.t
      val pred_lock : 'a t -> 'b pred -> Mutex.t
      val pred_marked : 'a pred -> bool
      type local = {
        handle : S.handle;
        hp_prev : S.guard;
        hp_cur : S.guard;
      }
      val create : S.t -> 'a t
      val scheme : 'a t -> S.t
      val stats : 'a t -> Smr_core.Stats.t
      val make_local : S.handle -> local
      val clear_local : local -> unit
      val walk :
        'a t ->
        local -> int -> [> `Done of 'a pred * 'a node option | `Prot ]
      val contains : 'a t -> local -> int -> 'a option
      val get : 'a t -> local -> int -> 'a option
      val validated :
        'a t ->
        pred:'a pred -> cur:'a node option -> (unit -> 'b) -> 'b option
      val insert : 'a t -> local -> int -> 'a -> bool
      val remove : 'a t -> local -> int -> bool
      val to_list : 'a t -> (int * 'a) list
      val size : 'a t -> int
      val assert_reachable_not_freed : 'a t -> unit
    end
