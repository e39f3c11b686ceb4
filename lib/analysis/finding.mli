(** Lint rules and findings. *)

type rule = {
  id : string;  (** short id, e.g. ["R2"] *)
  slug : string;  (** kebab-case name, e.g. ["raw-link-deref"] *)
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

val f1 : rule  (** unvalidated-deref (flow) *)

val f2 : rule  (** protected-escape (flow) *)

val f3 : rule  (** use-after-retire (flow) *)

val f4 : rule  (** collector-handoff (flow) *)

val f5 : rule  (** crit-hygiene (flow) *)

val f6 : rule  (** counter-read-order *)

val f7 : rule  (** quiescent-mixing (flow) *)

val unused_pragma : rule  (** P1: a pragma that suppressed nothing *)

val bad_pragma : rule  (** P2: an unparsable smr-lint pragma *)

val parse_error : rule  (** E0: the file failed to parse *)

val all_rules : rule list

val rule_matches : rule -> string -> bool
(** Does a pragma token (id or slug, case-insensitive) name this rule? *)

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;  (** 1-based; carried for SARIF, not printed by human/JSON *)
  message : string;
}

val make : ?col:int -> rule -> file:string -> line:int -> string -> t
(** [col] defaults to 1. *)

val compare : t -> t -> int
val to_human : t -> string
val to_json : t -> string
val json_escape : string -> string
