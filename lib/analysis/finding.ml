(* Rule metadata and findings. Rules are identified both by a short id
   ("R2") and a slug ("invalidate-before-free"); pragmas may use either. A
   [file_scope] rule is about the file as a whole (suppressible by a pragma
   anywhere in it); the others anchor to a line and are suppressible only by
   a pragma on that line or the line above. *)

type rule = {
  id : string;
  slug : string;
  file_scope : bool;
  suppressible : bool;
  summary : string;
}

let r2 =
  {
    id = "R2";
    slug = "invalidate-before-free";
    file_scope = false;
    suppressible = true;
    summary = "a free/reclaim call precedes batch invalidation";
  }

let r3 =
  {
    id = "R3";
    slug = "shared-mutable-field";
    file_scope = false;
    suppressible = true;
    summary =
      "plain mutable field in a record shared across domains (OCaml \
       memory-model data race)";
  }

let r4 =
  {
    id = "R4";
    slug = "unguarded-trace-alloc";
    file_scope = false;
    suppressible = true;
    summary =
      "Trace.emit argument may allocate outside an `if Trace.enabled ()` \
       guard";
  }

let r5 =
  {
    id = "R5";
    slug = "missing-mli";
    file_scope = true;
    suppressible = true;
    summary = "module has no .mli and exports everything";
  }

(* Flow rules (smr_lint v2): produced by the dataflow engine in
   rules_flow.ml rather than the syntactic pass. *)

let f2 =
  {
    id = "F2";
    slug = "protected-escape";
    file_scope = false;
    suppressible = true;
    summary =
      "a merely-Protected pointer escapes its protection window (returned \
       or stored before validation)";
  }

let f3 =
  {
    id = "F3";
    slug = "use-after-retire";
    file_scope = false;
    suppressible = true;
    summary =
      "flow error around retirement: dereference of a retired/invalidated \
       pointer, or retire of an already-published node";
  }

let f4 =
  {
    id = "F4";
    slug = "collector-handoff";
    file_scope = false;
    suppressible = true;
    summary =
      "mutator-side use of a retire bag after Collector.offer succeeded \
       (ownership moved to the background collector)";
  }

let f5 =
  {
    id = "F5";
    slug = "crit-hygiene";
    file_scope = false;
    suppressible = true;
    summary =
      "blocking operation (fault gate wait, socket/file I/O, domain join) \
       inside an EBR/PEBR critical section";
  }

let f6 =
  {
    id = "F6";
    slug = "counter-read-order";
    file_scope = false;
    suppressible = true;
    summary =
      "unsequenced monotonic-counter reads in one subtraction (OCaml \
       evaluates operands right-to-left; bind the increasing side first)";
  }

let f7 =
  {
    id = "F7";
    slug = "quiescent-mixing";
    file_scope = false;
    suppressible = true;
    summary =
      "declared quiescent read (Link.get_quiescent) in a function that \
       also synchronizes (protects, CASes, retires or enters crit)";
  }

let unused_pragma =
  {
    id = "P1";
    slug = "unused-pragma";
    file_scope = false;
    suppressible = false;
    summary = "suppression pragma matched no finding";
  }

let bad_pragma =
  {
    id = "P2";
    slug = "malformed-pragma";
    file_scope = false;
    suppressible = false;
    summary = "smr-lint pragma without a parsable rule list and reason";
  }

let parse_error =
  {
    id = "E0";
    slug = "parse-error";
    file_scope = false;
    suppressible = false;
    summary = "source file failed to parse";
  }

let rule_matches rule token =
  let t = String.lowercase_ascii token in
  t = String.lowercase_ascii rule.id || t = rule.slug

type t = { rule : rule; file : string; line : int; message : string }

let make rule ~file ~line message = { rule; file; line; message }

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> String.compare a.rule.id b.rule.id
      | c -> c)
  | c -> c

let to_human f =
  Printf.sprintf "%s:%d: [%s %s] %s" f.file f.line f.rule.id f.rule.slug
    f.message
