(* Rule dispatch by path scope, pragma suppression, and aggregation.

   v2 layering: the v1 syntactic rules (R2–R5) run as a fast pre-pass —
   they are cheap and their findings are locational in ways the dataflow
   engine does not replicate — then the flow rules (F2–F7, rules_flow.ml)
   run per scope.

   Cross-file resolution is by summary table: each analyzed file's
   top-level summaries accumulate into a table (keyed "stem.name"), and a
   qualified call [C.try_protect] in a later file resolves through the
   lowercased qualifier. Files are visited in sorted order, so resolution
   is deterministic. *)

(* A scope is a sequence of adjacent path components; ["lib"; "ds"] matches
   any file living under a .../lib/ds/... directory, wherever the tree was
   copied (so CI can lint a scratch copy under /tmp). *)
let path_components path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")

let rec has_prefix prefix comps =
  match (prefix, comps) with
  | [], _ -> true
  | _, [] -> false
  | p :: ps, c :: cs -> p = c && has_prefix ps cs

let rec in_scope scope comps =
  has_prefix scope comps
  || match comps with [] -> false | _ :: rest -> in_scope scope rest

let under path scopes =
  let comps = path_components path in
  List.exists (fun s -> in_scope s comps) scopes

let ds_scope = [ [ "lib"; "ds" ] ]

let scheme_scope =
  [
    [ "lib"; "core" ]; [ "lib"; "hp" ]; [ "lib"; "ebr" ]; [ "lib"; "pebr" ];
    [ "lib"; "rc" ]; [ "lib"; "nr" ]; [ "lib"; "smr" ];
  ]

let shared_state_scope =
  [
    [ "lib"; "smr" ]; [ "lib"; "smr_core" ]; [ "lib"; "core" ];
    [ "lib"; "ebr" ]; [ "lib"; "pebr" ]; [ "lib"; "hp" ];
    [ "lib"; "net" ]; [ "lib"; "obs" ];
  ]

let lib_scope = [ [ "lib" ] ]
let lint_scope = [ [ "lib" ]; [ "bin" ] ]

let checks_for path =
  {
    Rules_flow.c_escape = under path ds_scope;
    c_retire = under path ds_scope || under path scheme_scope;
    c_handoff = under path scheme_scope;
    c_crit = under path lint_scope;
    c_counter = under path lint_scope;
    c_quiescent = under path ds_scope;
  }

type report = {
  findings : Finding.t list;  (** unsuppressed, sorted *)
  suppressed : (Finding.t * string) list;  (** finding, pragma reason *)
  files : int;
}

let stem_of path =
  String.lowercase_ascii (Filename.remove_extension (Filename.basename path))

let ext_of_table table ~qual last =
  match qual with
  | Some q -> Summary.lookup table ~stem:(String.lowercase_ascii q) last
  | None -> None

let raw_findings ~table ~path ~mli_exists (src : Source.t) =
  match src.ast with
  | None ->
      let line, msg = Option.value src.parse_failure ~default:(1, "parse error") in
      [ Finding.make Finding.parse_error ~file:path ~line msg ]
  | Some ast ->
      let syntactic =
        List.concat
          [
            (if under path scheme_scope then Rules.r2_check ~file:path ast
             else []);
            (if under path shared_state_scope then Rules.r3_check ~file:path ast
             else []);
            (if under path lint_scope then Rules.r4_check ~file:path ast else []);
            (if under path lib_scope then Rules.r5_check ~file:path ~mli_exists ()
             else []);
          ]
      in
      let flow, exports =
        Rules_flow.run ~file:path ~checks:(checks_for path)
          ~ext:(ext_of_table table) ast
      in
      let stem = stem_of path in
      List.iter (fun s -> Summary.add table ~stem s) exports;
      syntactic @ flow

(* A pragma suppresses a finding when the rule matches and — for line-scope
   rules — the pragma sits on the finding's line or the line above. Pragmas
   that suppress nothing are themselves findings (P1), as are unparsable
   ones (P2): stale or sloppy suppressions fail the build too. *)
let apply_pragmas (src : Source.t) findings =
  let kept, suppressed =
    List.partition_map
      (fun (f : Finding.t) ->
        if not f.rule.suppressible then Left f
        else
          let matching =
            List.find_opt
              (fun (p : Source.pragma) ->
                List.exists (Finding.rule_matches f.rule) p.p_rules
                && (f.rule.file_scope
                   || p.p_line = f.line
                   || p.p_line = f.line - 1))
              src.pragmas
          in
          match matching with
          | Some p ->
              p.p_used <- true;
              Right (f, p.p_reason)
          | None -> Left f)
      findings
  in
  let unused =
    List.filter_map
      (fun (p : Source.pragma) ->
        if p.p_used then None
        else
          Some
            (Finding.make Finding.unused_pragma ~file:src.path ~line:p.p_line
               (Printf.sprintf
                  "pragma allows [%s] but no such finding exists here: \
                   remove it (stale suppressions hide regressions)"
                  (String.concat ", " p.p_rules))))
      src.pragmas
  in
  let bad =
    List.map
      (fun line ->
        Finding.make Finding.bad_pragma ~file:src.path ~line
          "pragma must be a comment whose payload is `smr-lint: allow \
           <rule>[, <rule>] — <reason>` with a non-empty reason")
      src.bad_pragmas
  in
  (kept @ unused @ bad, suppressed)

let analyze_source ?(mli_exists = false) ~path text =
  let table = Summary.empty_table () in
  let src = Source.of_string ~path text in
  let findings = raw_findings ~table ~path ~mli_exists src in
  apply_pragmas src findings

let analyze_in ~table path =
  let src = Source.load path in
  let mli_exists =
    Filename.check_suffix path ".ml"
    && Sys.file_exists (Filename.remove_extension path ^ ".mli")
  in
  let findings = raw_findings ~table ~path ~mli_exists src in
  apply_pragmas src findings

let rec ml_files_under path acc =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if entry = "" || entry.[0] = '.' || entry = "_build" then acc
           else ml_files_under (Filename.concat path entry) acc)
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let analyze_file path = analyze_in ~table:(Summary.empty_table ()) path

let run paths =
  let table = Summary.empty_table () in
  let files =
    List.concat_map (fun p -> List.rev (ml_files_under p [])) paths
  in
  let findings, suppressed =
    List.fold_left
      (fun (fs, ss) file ->
        let f, s = analyze_in ~table file in
        (f @ fs, s @ ss))
      ([], []) files
  in
  {
    findings = List.sort Finding.compare findings;
    suppressed = List.sort (fun (a, _) (b, _) -> Finding.compare a b) suppressed;
    files = List.length files;
  }
