(** Systems-under-test: uniform first-class-module wrappers tying one data
    structure to one reclamation scheme for the model-based harness.

    Each wrapper builds the scheme with a {e tiny} reclaim threshold (the
    case's [threshold], typically 1–4): a 2-thread 3-op schedule must
    actually reach retire-bag scans, invalidation and frees, or the
    interleavings being enumerated never exercise the reclamation protocol
    at all. The production default of 128 would make every model-check run
    trivially reclaim-free. *)

module type SUT = sig
  val ds : string
  val scheme : string
  val kind : Gen.kind

  val reclaims : bool
  (** {!Schemes.reclaims} of the scheme: false for NR, which never frees,
      where the drained-to-zero check is meaningless. *)

  type t
  type local

  val make : threshold:int -> t
  val attach : t -> local

  val apply : t -> local -> Gen.op -> Model.result
  (** Run one operation through the real structure. May raise
      [Fault.Killed] (fault injection) or a [Mem] lifecycle exception (a
      detected bug). *)

  val detach : t -> local -> unit
  (** Clean close for a thread that finished its script. *)

  val recover : t -> local -> unit
  (** Crash-path close for a thread that died mid-protocol (killed,
      use-after-free, schedule overflow): survivors complete its
      obligations via [report_crashed]. *)

  val drain : t -> unit
  (** Post-run: adopt orphans and run reclamation passes until quiescent
      garbage is freed. *)

  val contents : t -> Model.state
  (** Quiescent contents, in the reference model's representation. *)

  val structural : t -> unit
  (** Structure-specific invariant sweep (reachable-not-freed, key
      uniqueness); raises on violation. *)

  val unreclaimed : t -> int

  val pin_rngs : unit -> unit
  (** Reset any global RNG state the structure consumes (skiplist tower
      heights) so the same case replays identically across runs. *)
end

type sut = (module SUT)

val structures : string list
(** Every structure the registry knows, in sweep order. *)

val find : ds:string -> scheme:string -> sut option
(** [None] for an unknown name, or for a pair whose structure is not
    applicable under the scheme (its [unsupported], e.g. nmtree under HP). *)
