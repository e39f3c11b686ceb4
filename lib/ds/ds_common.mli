(** Scheme-generic protection helpers shared by the data structures: TryProtect (optimistic and pessimistic), critical-section retry loop, trace hooks.

    Signature inferred from the implementation; the full surface stays
    exported because the harness, tests and sibling modules consume the
    node representations directly. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Trace = Obs.Trace
module Make :
  functor (S : Smr.Smr_intf.S) ->
    sig
      val uid_of_hdr : Mem.header -> int
      val trace_step :
        src:Mem.header -> validated:bool -> 'a Tagged.t -> unit
      val try_protect :
        src:Mem.header ->
        S.guard -> S.handle -> src_link:'a Link.t -> 'a Tagged.t -> 'a Tagged.t
      val protect_pessimistic :
        src:Mem.header ->
        S.guard -> S.handle -> src_link:'a Link.t -> 'a Tagged.t -> bool
      val with_crit :
        S.handle ->
        Smr_core.Stats.t -> (unit -> [< `Done of 'a | `Prot | `Retry ]) -> 'a
    end
