(** The reclamation schemes, one table: every place that runs "each scheme"
    (the benchmark matrix, the model checker's registry, the CLIs'
    [--scheme] values) reads it, so adding a scheme is one line here.

    The order is the paper's figure column order: NR, EBR, PEBR, HP, HP++,
    RC. *)

val all : (string * (module Smr.Smr_intf.S)) list
(** [(S.name, S)] in column order. *)

val names : string list

val find : string -> (module Smr.Smr_intf.S) option

val reclaims : (module Smr.Smr_intf.S) -> bool
(** Whether the scheme ever frees what it retires, found by running it: a
    fresh instance retires one block nobody protects, flushes a few times,
    and reports whether it freed anything. NR answers false. *)

val reclaiming : unit -> (string * (module Smr.Smr_intf.S)) list
(** The entries of {!all} that {!reclaims}, in column order. *)
