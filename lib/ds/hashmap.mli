(** Lock-free hash map of HHS-list buckets with incremental resize.

    Signature inferred from the implementation; the full surface stays
    exported because the harness, tests and sibling modules consume the
    node representations directly. *)

module Make :
  functor (S : Smr.Smr_intf.S) ->
    sig
      module HM :
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
          type 'v node =
            'v Hmlist.Make(S).node = {
            mutable next : 'v node Hmlist.Link.cell;
            mutable hdr : Hmlist.Mem.cell;
            key : int;
            value : 'v;
          }
          type 'v t =
            'v Hmlist.Make(S).t = {
            scheme : S.t;
            head : 'v node Hmlist.Link.t;
          }
          type local =
            Hmlist.Make(S).local = {
            handle : S.handle;
            hp_prev : S.guard;
            hp_cur : S.guard;
          }
          val create : S.t -> 'a t
          val scheme : 'a t -> S.t
          val stats : 'a t -> Smr_core.Stats.t
          val make_local : S.handle -> local
          val clear_local : local -> unit
          val find_attempt :
            'a t ->
            local ->
            int ->
            [> `Done of
                 bool * 'a node Ds_common.Link.t *
                 'a node Hmlist.Tagged.t * 'a node option
             | `Prot
             | `Retry ]
          val get : 'a t -> local -> int -> 'a option
          val insert : 'a t -> local -> int -> 'a -> bool
          val remove : 'a t -> local -> int -> bool
          val to_list : 'a t -> (int * 'a) list
          val size : 'a t -> int
          val assert_reachable_not_freed : 'a t -> unit
        end
      module HHS :
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
          type 'v node =
            'v Hhslist.Make(S).node = {
            mutable next : 'v node Hhslist.Link.cell;
            mutable hdr : Hhslist.Mem.cell;
            key : int;
            value : 'v;
          }
          type 'v t =
            'v Hhslist.Make(S).t = {
            scheme : S.t;
            head : 'v node Hhslist.Link.t;
          }
          type local =
            Hhslist.Make(S).local = {
            handle : S.handle;
            hp_prev : S.guard;
            hp_cur : S.guard;
            hp_anchor : S.guard;
            hp_anchor_next : S.guard;
          }
          type 'v anchor_info =
            'v Hhslist.Make(S).anchor_info = {
            a_link : 'v node Hhslist.Link.t;
            a_expected : 'v node Hhslist.Tagged.t;
            a_first : 'v node;
          }
          val create : S.t -> 'a t
          val scheme : 'a t -> S.t
          val stats : 'a t -> Smr_core.Stats.t
          val make_local : S.handle -> local
          val clear_local : local -> unit
          val collect_chain : 'a node -> 'a node option -> 'a node list
          val invalidate_node : 'a node -> unit
          val search_attempt :
            'a t ->
            local ->
            int ->
            [> `Done of
                 bool * 'a node Hhslist.Link.t *
                 'a node Hhslist.Tagged.t * 'a node option
             | `Prot
             | `Retry ]
          val get : 'a t -> local -> int -> 'a option
          val insert : 'a t -> local -> int -> 'a -> bool
          val remove : 'a t -> local -> int -> bool
          val to_list : 'a t -> (int * 'a) list
          val size : 'a t -> int
          val assert_reachable_not_freed : 'a t -> unit
        end
      type 'v buckets =
          Pessimistic of 'v HM.t array
        | Optimistic of 'v HHS.t array
      type 'v t = { scheme : S.t; buckets : 'v buckets; mask : int; }
      type local = { hm : HM.local; hhs : HHS.local; }
      val default_buckets : int
      val hash_key : int -> int -> int
      val create_sized : buckets:int -> S.t -> 'a t
      val create : S.t -> 'a t
      val scheme : 'a t -> S.t
      val stats : 'a t -> Smr_core.Stats.t
      val make_local : S.handle -> local
      val clear_local : local -> unit
      val get : 'a t -> local -> int -> 'a option
      val insert : 'a t -> local -> int -> 'a -> bool
      val remove : 'a t -> local -> int -> bool
      val to_list : 'a t -> (int * 'a) list
      val size : 'a t -> int
      val assert_reachable_not_freed : 'a t -> unit
    end
