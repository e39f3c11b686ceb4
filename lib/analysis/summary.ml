(* Per-function protection-effect summaries (DESIGN.md §15).

   A summary is the Raw-seeded abstract of one function: every positional
   parameter starts as a [Raw] object, the body is solved, and the summary
   records what the function does to each parameter and what it returns.
   Callers apply summaries instead of inlining, so recursion (including
   mutual recursion between local helpers) converges by iterating the
   build-and-summarize pass over a file until summaries stop changing.

   Summaries of top-level functions collect in a table for the run, so a
   file analyzed later resolves qualified cross-file calls (module aliases
   like [module C = Ds_common.Make (S)] map the qualifier to a file
   stem). *)

type slot =
  | Pass of int
      (** the slot is exactly parameter [i] at every return site: callers
          substitute the argument's own objects instead of a
          context-insensitive constant state. This is what lets a search
          helper return its validated cursor through a variant payload and
          keep the caller's deref legal. *)
  | St of Lattice.state

type fn = {
  s_name : string;
  s_arity : int;
  s_param_exit : Lattice.state array;
      (** exit state of each Raw-seeded param; [Raw] means untouched *)
  s_retires : bool array;  (** param is retired by the callee *)
  s_ret_slots : slot array;
      (** per-slot return shapes, joined across return sites; a slot is a
          top-level tuple/constructor-argument position of the returned
          value, so a caller destructuring the result keeps per-component
          precision ([St Bot] = nothing tracked flows out of that slot) *)
  s_ret_whole : slot;  (** joined whole-value return shape *)
  s_blocks : string option;
      (** a blocking operation the callee reaches outside its own crit
          section (so calling it inside one is a hygiene error) *)
  s_enters_crit : bool;
  s_quiescent : bool;  (** performs a declared quiescent read *)
}

let equal a b =
  a.s_name = b.s_name && a.s_arity = b.s_arity
  && a.s_param_exit = b.s_param_exit
  && a.s_retires = b.s_retires
  && a.s_ret_slots = b.s_ret_slots
  && a.s_ret_whole = b.s_ret_whole
  && a.s_blocks = b.s_blocks
  && a.s_enters_crit = b.s_enters_crit
  && a.s_quiescent = b.s_quiescent

(* --- Summary table -------------------------------------------------------- *)

(* Keyed ["stem.name"] where stem is the defining file's basename without
   extension ("ds_common"), so a caller that aliases the module resolves
   through the stem regardless of functor application. *)
type table = (string, fn) Hashtbl.t

let key ~stem name = stem ^ "." ^ name
let empty_table () : table = Hashtbl.create 64

let lookup (t : table) ~stem name =
  Hashtbl.find_opt t (key ~stem name)

let add (t : table) ~stem (s : fn) = Hashtbl.replace t (key ~stem s.s_name) s
