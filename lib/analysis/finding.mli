(** Lint rules and findings. *)

type rule = {
  id : string;  (** short id, e.g. ["R2"] *)
  slug : string;  (** kebab-case name, e.g. ["invalidate-before-free"] *)
  file_scope : bool;
      (** file-granularity rule: suppressible by a pragma anywhere in the
          file (line rules need the pragma on the finding's line or the line
          above) *)
  suppressible : bool;  (** pragma-suppressible at all *)
  summary : string;
}


val r2 : rule  (** invalidate-before-free *)

val r3 : rule  (** shared-mutable-field *)

val r4 : rule  (** unguarded-trace-alloc *)

val r5 : rule  (** missing-mli *)

val f2 : rule  (** protected-escape (flow) *)

val f3 : rule  (** use-after-retire (flow) *)

val f4 : rule  (** collector-handoff (flow) *)

val f5 : rule  (** crit-hygiene (flow) *)

val f6 : rule  (** counter-read-order *)

val f7 : rule  (** quiescent-mixing (flow) *)

val unused_pragma : rule  (** P1: a pragma that suppressed nothing *)

val bad_pragma : rule  (** P2: an unparsable smr-lint pragma *)

val parse_error : rule  (** E0: the file failed to parse *)

val rule_matches : rule -> string -> bool
(** Does a pragma token (id or slug, case-insensitive) name this rule? *)

type t = { rule : rule; file : string; line : int; message : string }

val make : rule -> file:string -> line:int -> string -> t

val compare : t -> t -> int
val to_human : t -> string
