(** Per-function protection-effect summaries (DESIGN.md §15): the
    Raw-seeded abstract of one function, applied at call sites instead of
    inlining. The file driver iterates build-and-summarize to fixpoint so
    (mutually) recursive helpers converge; top-level summaries collect in
    a table for cross-file resolution within one run. *)

type slot =
  | Pass of int
      (** the slot is exactly parameter [i] at every return site: callers
          substitute the argument's own objects (and hence its current
          abstract state) instead of a context-insensitive constant *)
  | St of Lattice.state  (** joined state across return sites *)

type fn = {
  s_name : string;
  s_arity : int;
  s_param_exit : Lattice.state array;
      (** exit state of each Raw-seeded param; [Raw] means untouched *)
  s_retires : bool array;  (** param is retired by the callee *)
  s_ret_slots : slot array;
      (** per-slot return shape joined across return sites; a slot is a
          top-level tuple/constructor-argument position of the returned
          value ([St Bot] = nothing tracked flows out of that slot) *)
  s_ret_whole : slot;  (** joined whole-value return shape *)
  s_blocks : string option;
      (** a blocking operation the callee reaches outside its own crit
          section *)
  s_enters_crit : bool;
  s_quiescent : bool;  (** performs a declared quiescent read *)
}

val equal : fn -> fn -> bool

(** {1 Summary table} — keyed ["stem.name"] by defining file stem *)

type table = (string, fn) Hashtbl.t

val empty_table : unit -> table
val lookup : table -> stem:string -> string -> fn option
val add : table -> stem:string -> fn -> unit
