(** Rule dispatch by path scope, pragma suppression, aggregation.

    Scopes are matched on path {e components}, so the tree can be linted in
    place or from a scratch copy (CI's seeded-violation check): any file
    under a [.../lib/ds/...] directory gets the data-structure flow rules,
    scheme directories get the ordering and handoff rules, everything under
    [lib] or [bin] gets the crit-hygiene, counter-order and trace-budget
    rules.

    v2 layering: the v1 syntactic rules (R2–R5) run as a fast pre-pass,
    then the flow rules (F2–F7, {!Rules_flow}). Each file's top-level
    summaries accumulate into the run's {!Summary.table} for cross-file
    call resolution. *)

type report = {
  findings : Finding.t list;  (** unsuppressed, sorted by file/line *)
  suppressed : (Finding.t * string) list;  (** finding, pragma reason *)
  files : int;
}

val analyze_source :
  ?mli_exists:bool ->
  path:string ->
  string ->
  Finding.t list * (Finding.t * string) list
(** Analyze one compilation unit given as a string; [path] selects rule
    scopes and [mli_exists] (default [false]) feeds the missing-mli rule.
    Returns (unsuppressed findings, suppressed findings with reasons). *)

val analyze_file : string -> Finding.t list * (Finding.t * string) list

val run : string list -> report
(** Analyze every [.ml] file under the given files/directories (skipping
    [_build] and dot-directories), in sorted order so in-tree summary
    resolution is deterministic. *)
