(* smr_lint: static SMR-discipline analyzer for the tree.

   Usage: smr_lint [--show-suppressed] [--max-wall-ms N] PATH...

   Exits 1 when any unsuppressed finding remains, 2 when --max-wall-ms is
   exceeded, 0 otherwise. *)

let usage = "smr_lint [--show-suppressed] [--max-wall-ms N] PATH..."

let () =
  let show_suppressed = ref false in
  let max_wall_ms = ref 0 in
  let paths = ref [] in
  let spec =
    [
      ( "--show-suppressed",
        Arg.Set show_suppressed,
        " also list pragma-suppressed findings" );
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
  let report = Analysis.Engine.run paths in
  let elapsed_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) in
  let findings = report.findings in
  List.iter (fun f -> print_endline (Analysis.Finding.to_human f)) findings;
  if !show_suppressed then
    List.iter
      (fun (f, reason) ->
        Printf.printf "%s  [suppressed: %s]\n"
          (Analysis.Finding.to_human f)
          reason)
      report.suppressed;
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
