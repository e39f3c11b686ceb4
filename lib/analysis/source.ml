(* Source loading: read a file, parse it with the compiler's own parser
   (Parse.implementation — syntax only, no typing, no ppx), and scan the raw
   text for suppression pragmas.

   Pragma form, one per line, as the payload of an ordinary comment — the
   marker must directly follow the comment opener:

     smr-lint: allow <rule>[, <rule>...] — <reason>

   where <rule> is an id ("F3") or slug ("use-after-retire") and <reason> is
   mandatory, after an em dash or "--". A pragma suppresses matching
   line-scope findings on its own line or the line directly below, and
   matching file-scope findings anywhere in the file. Requiring the comment
   opener on the same line keeps strings and prose that merely mention the
   marker from being treated as pragmas. *)

type pragma = {
  p_line : int;
  p_rules : string list;
  p_reason : string;
  mutable p_used : bool;
}

type t = {
  path : string;
  ast : Parsetree.structure option;  (** [None] when the file failed to parse *)
  parse_failure : (int * string) option;  (** line, message *)
  pragmas : pragma list;
  bad_pragmas : int list;  (** lines with an unparsable smr-lint pragma *)
}

let marker = "smr-lint:"

(* Find [sub] in [s] starting at [from]; naive scan is fine at these sizes. *)
let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

let split_on_any s seps =
  String.split_on_char ' ' (String.map (fun c -> if List.mem c seps then ' ' else c) s)
  |> List.filter (fun t -> t <> "")

(* Parse the pragma payload after "smr-lint:". Returns [None] when the line
   carries the marker but not a well-formed allow-pragma. *)
let parse_pragma_payload payload =
  let payload = String.trim payload in
  let after_allow =
    if String.length payload >= 5 && String.sub payload 0 5 = "allow" then
      Some (String.sub payload 5 (String.length payload - 5))
    else None
  in
  match after_allow with
  | None -> None
  | Some rest -> (
      (* reason separator: em dash (U+2014) or "--" *)
      let sep =
        match find_sub rest "\xe2\x80\x94" 0 with
        | Some i -> Some (i, 3)
        | None -> ( match find_sub rest "--" 0 with
                    | Some i -> Some (i, 2)
                    | None -> None)
      in
      match sep with
      | None -> None
      | Some (i, w) ->
          let rules_part = String.sub rest 0 i in
          let reason_part = String.sub rest (i + w) (String.length rest - i - w) in
          let reason =
            let r = String.trim reason_part in
            (* strip a trailing comment close *)
            let r =
              match find_sub r "*)" 0 with
              | Some j -> String.trim (String.sub r 0 j)
              | None -> r
            in
            r
          in
          let rules = split_on_any rules_part [ ','; '\t' ] in
          if rules = [] || reason = "" then None
          else Some (rules, reason))

(* The marker counts only when it directly follows a comment opener —
   open-paren star — on the same line, whitespace allowed between. *)
let preceded_by_opener line at =
  let rec skip_ws j = if j >= 0 && line.[j] = ' ' then skip_ws (j - 1) else j in
  let j = skip_ws (at - 1) in
  j >= 1 && line.[j] = '*' && line.[j - 1] = '('

let scan_pragmas text =
  let pragmas = ref [] and bad = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lnum = i + 1 in
      match find_sub line marker 0 with
      | Some at when preceded_by_opener line at -> (
          let payload =
            String.sub line
              (at + String.length marker)
              (String.length line - at - String.length marker)
          in
          match parse_pragma_payload payload with
          | Some (rules, reason) ->
              pragmas :=
                { p_line = lnum; p_rules = rules; p_reason = reason; p_used = false }
                :: !pragmas
          | None -> bad := lnum :: !bad)
      | _ -> ())
    lines;
  (List.rev !pragmas, List.rev !bad)

let parse ~path text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  try Ok (Parse.implementation lexbuf) with
  | Syntaxerr.Error err ->
      let loc = Syntaxerr.location_of_error err in
      Error (loc.Location.loc_start.Lexing.pos_lnum, "syntax error")
  | Lexer.Error (_, loc) ->
      Error (loc.Location.loc_start.Lexing.pos_lnum, "lexing error")

let of_string ~path text =
  let pragmas, bad_pragmas = scan_pragmas text in
  match parse ~path text with
  | Ok ast -> { path; ast = Some ast; parse_failure = None; pragmas; bad_pragmas }
  | Error (line, msg) ->
      { path; ast = None; parse_failure = Some (line, msg); pragmas; bad_pragmas }

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string ~path text
