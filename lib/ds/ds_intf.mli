(** The map surface every set-like structure in [smr_ds] exports, so a
    structure is decoupled from its reclaimer by one interface: anything
    written against {!MAP} runs every structure under every scheme.

    Keys are ints; values are polymorphic. [get]/[insert]/[remove] are the
    concurrent operations, each run through a per-thread {!MAP.local}
    (the thread's scheme handle plus the hazard guards the traversal
    needs). [to_list], [size] and [assert_reachable_not_freed] read the
    structure only when no operation is in flight. *)

module type MAP = sig
  type scheme
  (** The reclamation domain ([S.t]). *)

  type handle
  (** One thread's participant in it ([S.handle]). *)

  type 'v t
  type local

  val unsupported : string option
  (** [Some reason] when the scheme the functor was applied to cannot
      protect this structure's traversal — the "not applicable" cells of
      the paper's Table 2. Decided from the scheme's capability flags when
      the functor is applied; {!create} then raises
      [Smr.Smr_intf.Unsupported_scheme reason]. *)

  val create : scheme -> 'v t
  val scheme : 'v t -> scheme
  val stats : 'v t -> Smr_core.Stats.t
  val make_local : handle -> local

  val clear_local : local -> unit
  (** Release the local's hazard guards. *)

  val get : 'v t -> local -> int -> 'v option
  val insert : 'v t -> local -> int -> 'v -> bool
  val remove : 'v t -> local -> int -> bool

  val to_list : 'v t -> (int * 'v) list
  (** Quiescent: the bindings in ascending key order. *)

  val size : 'v t -> int

  val assert_reachable_not_freed : 'v t -> unit
  (** Quiescent: raises if a node reachable from the root has been freed
      (or the structure's own invariants fail). *)
end

module type MAKE_MAP = functor (S : Smr.Smr_intf.S) ->
  MAP with type scheme = S.t and type handle = S.handle
