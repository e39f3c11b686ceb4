(** The epoch clock shared by EBR and PEBR (and RC, through EBR): the
    global epoch, one presence word per participant, the participant list
    with dead-participant pruning, and the advance rule. A scheme keeps only
    its freeing rule (retired at [e], free once the epoch reaches [e + 2])
    and, for PEBR, the decision to force an advance. *)

type t
type participant

val create : unit -> t

val current : t -> int
(** The global epoch. *)

val register : t -> participant
(** A new live, quiescent, non-neutralized participant. *)

val pin : t -> participant -> unit
(** Enter a critical section pinned at the current epoch (one SC store). *)

val unpin : participant -> unit

val leave : participant -> unit
(** Mark the participant dead (unregister or crash recovery): it no longer
    holds the epoch back, and the next {!try_advance} prunes it. *)

val neutralized : participant -> bool
(** A forced advance withdrew this participant's epoch protection (PEBR). *)

val clear_neutralized : participant -> unit

val try_advance : ?force:bool -> t -> unit
(** Advance the epoch by one iff every live pinned participant has observed
    it. [~force:true] neutralizes the laggards and advances anyway; its
    [Epoch_advance] trace event carries [b = 1]. *)
