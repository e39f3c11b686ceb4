(* smr_lint: static SMR-discipline analyzer for the tree.

   Usage: smr_lint [--json|--sarif] [--show-suppressed] [--prune-pragmas]
                   [--summaries-out FILE] [--summaries-in FILE]
                   [--max-wall-ms N] PATH...

   Exits 1 when any unsuppressed finding remains, 2 when --max-wall-ms is
   exceeded, 0 otherwise. *)

let usage =
  "smr_lint [--json|--sarif] [--show-suppressed] [--prune-pragmas] \
   [--summaries-out FILE] [--summaries-in FILE] [--max-wall-ms N] PATH..."

let () =
  let json = ref false in
  let sarif = ref false in
  let show_suppressed = ref false in
  let prune = ref false in
  let summaries_out = ref "" in
  let summaries_in = ref "" in
  let max_wall_ms = ref 0 in
  let paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit findings as a JSON array on stdout");
      ("--sarif", Arg.Set sarif, " emit findings as SARIF 2.1.0 on stdout");
      ( "--show-suppressed",
        Arg.Set show_suppressed,
        " also list pragma-suppressed findings (human mode)" );
      ( "--prune-pragmas",
        Arg.Set prune,
        " report only stale suppressions (P1 findings)" );
      ( "--summaries-out",
        Arg.Set_string summaries_out,
        "FILE write the run's function-summary sidecar as JSON" );
      ( "--summaries-in",
        Arg.Set_string summaries_in,
        "FILE preload a function-summary sidecar from a previous run" );
      ( "--max-wall-ms",
        Arg.Set_int max_wall_ms,
        "N exit 2 if the run takes longer than N ms of wall clock" );
    ]
  in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  let paths =
    match List.rev !paths with [] -> [ "lib"; "bin" ] | ps -> ps
  in
  let t0 = Unix.gettimeofday () in
  let table =
    if !summaries_in = "" then None
    else
      let ic = open_in_bin !summaries_in in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      Some (Analysis.Summary.table_of_json text)
  in
  let report = Analysis.Engine.run ?table paths in
  let elapsed_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) in
  if !summaries_out <> "" then begin
    let oc = open_out !summaries_out in
    output_string oc (Analysis.Summary.table_to_json report.summaries);
    close_out oc
  end;
  let findings =
    if !prune then
      List.filter
        (fun (f : Analysis.Finding.t) -> f.rule.id = "P1")
        report.findings
    else report.findings
  in
  if !sarif then print_string (Analysis.Sarif.render findings)
  else if !json then begin
    let items = List.map Analysis.Finding.to_json findings in
    print_string "[";
    List.iteri
      (fun i item ->
        if i > 0 then print_string ",";
        print_string "\n  ";
        print_string item)
      items;
    if items <> [] then print_string "\n";
    print_string "]\n"
  end
  else begin
    List.iter (fun f -> print_endline (Analysis.Finding.to_human f)) findings;
    if !show_suppressed then
      List.iter
        (fun (f, reason) ->
          Printf.printf "%s  [suppressed: %s]\n"
            (Analysis.Finding.to_human f)
            reason)
        report.suppressed
  end;
  Printf.eprintf "smr_lint: %d file%s, %d finding%s, %d suppressed, %d ms\n"
    report.files
    (if report.files = 1 then "" else "s")
    (List.length findings)
    (if List.length findings = 1 then "" else "s")
    (List.length report.suppressed)
    elapsed_ms;
  if !max_wall_ms > 0 && elapsed_ms > !max_wall_ms then begin
    Printf.eprintf "smr_lint: wall-clock budget exceeded (%d ms > %d ms)\n"
      elapsed_ms !max_wall_ms;
    exit 2
  end;
  if findings <> [] then exit 1
