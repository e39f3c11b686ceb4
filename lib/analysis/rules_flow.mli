(** The flow rules F2–F7 (DESIGN.md §15): summary fixpoint over a file's
    CFGs, then a Neutral-seeded error pass per function. Scope selection
    (which checks run on which directory) lives in {!Engine}. *)

type checks = {
  c_escape : bool;  (** F2 protected-escape *)
  c_retire : bool;  (** F3 use-after-retire *)
  c_handoff : bool;  (** F4 collector-handoff *)
  c_crit : bool;  (** F5 crit-hygiene *)
  c_counter : bool;  (** F6 counter-read-order *)
  c_quiescent : bool;  (** F7 quiescent-mixing *)
}

val converge :
  ext:(qual:string option -> string -> Summary.fn option) ->
  Parsetree.structure ->
  Cfg.file * Summary.fn array
(** Iterate build-and-summarize until the per-function summaries stop
    changing (call-return slot arity depends on callee summaries, so the
    graph converges with them); returns the final CFGs and summaries
    indexed by fid. Exposed for the engine-internal tests. *)

val run :
  file:string ->
  checks:checks ->
  ext:(qual:string option -> string -> Summary.fn option) ->
  Parsetree.structure ->
  Finding.t list * Summary.fn list
(** Returns (findings, summaries of the file's top-level functions, for
    the run's cross-file table). *)
