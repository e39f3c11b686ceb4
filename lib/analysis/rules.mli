(** The SMR-discipline rule set: cheap syntactic under-approximations of the
    protect/retire/free obligations (DESIGN.md §10). Each check takes a
    parsed structure and returns findings; scope selection (which rule runs
    on which directory) lives in {!Engine}. *)

val r2_check : file:string -> Parsetree.structure -> Finding.t list
(** Invalidate-before-free: in scheme code, a free-family call
    ([free_mark], [free_mark_cascade], [reclaim], [collect]) that
    syntactically precedes an invalidation-family call ([do_invalidation],
    [invalidate_all], [invalidate], [mark_invalid]) within one top-level
    function. *)

val r3_check : file:string -> Parsetree.structure -> Finding.t list
(** Shared-mutable-field: plain [mutable] record fields in types shared
    across domains — types that directly hold [Atomic.t] state or are
    reachable from one through field types. *)

val r4_check : file:string -> Parsetree.structure -> Finding.t list
(** Unguarded-trace-alloc: a [Trace.emit]/[Trace.emit_at] call site outside
    an [if Trace.enabled ()] guard whose arguments are not syntactically
    non-allocating. *)

val r5_check : file:string -> mli_exists:bool -> unit -> Finding.t list
(** Missing-mli. *)

(** {1 Shared Parsetree helpers}

    Reused by the v2 CFG builder ({!Cfg}) and flow rules ({!Rules_flow}). *)

val lident_parts : Longident.t -> string list

val app_head_name :
  Parsetree.expression -> (string option * string) option
(** Last one/two components of an application head's path ([Some (qual,
    last)]), if the head is an identifier or field projection. *)

val line_of_loc : Location.t -> int
val cnum_of_loc : Location.t -> int

val iter_expr : (Parsetree.expression -> unit) -> Parsetree.expression -> unit
(** Call [f] on every sub-expression. *)

val contains_app :
  (string option -> string -> bool) -> Parsetree.expression -> bool
(** Does [e] contain an application whose head matches [pred qual last]? *)

type func = {
  f_name : string;
  f_body : Parsetree.expression;
  f_loc : Location.t;
}
(** A top-level [let]-bound function (recursing into module/functor
    bodies). *)

val funcs_of_file : Parsetree.structure -> func list

val pattern_vars : Parsetree.pattern -> string list
(** Variables bound by a pattern (vars and aliases), innermost first. *)
