(** The protection-state lattice (DESIGN.md §15).

    One abstract state per tracked object, ordered so that [join] along
    control-flow merges is "least protected wins": a check at a merge sees
    the weakest state any incoming path reached, so a read after a retire
    on {e some} path is reported. *)

type state =
  | Bot  (** unreached / no information: identity of [join] *)
  | Invalidated  (** link marked invalid; any access is a flow error *)
  | Handed_off  (** ownership moved to the background collector *)
  | Retired  (** retired by this thread without surviving protection *)
  | Raw  (** read from a shared link, no protection yet *)
  | Protected  (** hazard slot announced, not yet re-validated *)
  | Validated  (** protection validated *)
  | Quiescent  (** declared quiescent read ([Link.get_quiescent]) *)
  | Neutral  (** not SMR-tracked (locals, fresh records, unknown results) *)

val rank : state -> int
(** Ascending protection order; [Bot] ranks above everything so it is the
    identity of [join]. *)

val join : state -> state -> state
(** Minimum rank: the less-protected side wins at a merge. *)

val widen : state -> state -> state
(** Equal to [join]: the chain is finite (height {!height}) so joining
    already terminates on loops. *)

val leq : state -> state -> bool
val equal : state -> state -> bool

val height : int
(** Length of the longest strictly-descending chain; bounds fixpoint
    relaxations per object. *)

val to_string : state -> string
val all : state list

type fact = { st : state; published : bool }
(** Per-object fact: abstract state plus whether the object was published
    (CASed/stored into shared state) on some path — the bit behind the
    retire-after-publish rule. *)

val bot_fact : fact
val join_fact : fact -> fact -> fact
val fact_equal : fact -> fact -> bool

type t = fact array option
(** Program-point state: one fact per object id, or [None] for an
    unreached point. *)

val unreached : t
val entry : int -> t
(** [entry n] is an all-[Bot] state over [n] objects (at least one). *)

val copy : t -> fact array option
val join_state : t -> t -> t
val state_equal : t -> t -> bool
