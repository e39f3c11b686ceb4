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

let f1 =
  {
    id = "F1";
    slug = "unvalidated-deref";
    file_scope = false;
    suppressible = true;
    summary =
      "dereference of a shared-read pointer on a path where Validated does \
       not dominate (still raw, or protected but never validated)";
  }

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

let all_rules =
  [ r2; r3; r4; r5; f1; f2; f3; f4; f5; f6; f7; unused_pragma; bad_pragma;
    parse_error ]

let rule_matches rule token =
  let t = String.lowercase_ascii token in
  t = String.lowercase_ascii rule.id || t = rule.slug

(* [col] is 1-based and carried for SARIF only: the human and JSON
   renderings below do not print it, so their output stays byte-identical
   to v1 (pinned by test_analysis). *)
type t = { rule : rule; file : string; line : int; col : int; message : string }

let make ?(col = 1) rule ~file ~line message = { rule; file; line; col; message }

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

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json f =
  Printf.sprintf
    "{\"rule\":\"%s\",\"slug\":\"%s\",\"file\":\"%s\",\"line\":%d,\
     \"message\":\"%s\"}"
    f.rule.id f.rule.slug (json_escape f.file) f.line (json_escape f.message)
