(** Seeded operation-sequence generation for the model-based checker.

    Everything is derived from a {!Smr_core.Rng} (splitmix64): the same
    seed always yields the same scripts, so a failing case is identified by
    [(ds, scheme, seed, sizes)] alone before shrinking pins the concrete
    ops. Inserted values are unique per (thread, position) so the
    linearizability checker can tell {e which} racing insert took effect. *)

type op =
  | Insert of int * int  (** key, value; insert-if-absent, returns whether it inserted *)
  | Remove of int
  | Get of int
  | Push of int
  | Pop
  | Enq of int
  | Deq

type kind = KMap | KStack | KQueue

val kind_name : kind -> string
val op_to_string : op -> string

val op_of_string : string -> op
(** @raise Failure on an unrecognized rendering. *)

val script :
  kind -> rng:Smr_core.Rng.t -> tid:int -> nops:int -> keyspace:int -> op list
(** One thread's ops. Map scripts draw keys from [\[0, keyspace)] with
    weights insert 40 / remove 30 / get 30; stack and queue scripts mix
    push/enq 60 / pop/deq 40. *)

val scripts :
  kind -> seed:int -> threads:int -> nops:int -> keyspace:int -> op list array
(** Per-thread scripts from one seed. *)
