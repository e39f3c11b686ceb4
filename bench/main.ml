(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 for the experiment index).

   Default invocation runs the full set at container-friendly sizes:
     dune exec --profile release bench/main.exe
   Individual experiments:
     dune exec --profile release bench/main.exe -- exp fig8 fig11 --threads 1,2,4
   Paper-scale key ranges and longer runs:
     dune exec --profile release bench/main.exe -- exp fig8 --paper-scale --duration 2
   The dev profile compiles libraries with -opaque, so it inlines nothing of
   a traversal step across modules: measure the release profile. *)

module E = Bench_harness.Experiments

let parse_threads s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")
  |> List.map int_of_string

(* No experiment names: the whole suite runs. *)
let run_exps settings exps =
  let exps = if exps = [] then E.known @ [ "hotpath"; "step" ] else exps in
  Printf.printf
    "HP++ reproduction benchmark suite\n\
     host: %d cores | threads=%s duration=%.2fs paper_scale=%b\n\
     note: thread counts above the host's cores measure preemptive \
     interleaving, not parallel speedup (DESIGN.md section 2)\n%!"
    (Domain.recommended_domain_count ())
    (String.concat "," (List.map string_of_int settings.E.threads_list))
    settings.E.duration settings.E.paper_scale;
  List.iter
    (fun exp ->
      if exp = "hotpath" then begin
        Bench_harness.Results.set_experiment "hotpath";
        Hotpath.run ~threads_list:settings.E.threads_list
          ~duration:settings.E.duration
      end
      else if exp = "step" then begin
        Bench_harness.Results.set_experiment "step";
        Step.run ~duration:settings.E.duration
      end
      else E.run settings exp)
    exps

open Cmdliner

let threads_arg =
  let doc = "Comma-separated worker counts for thread sweeps." in
  Arg.(value & opt string "1,2,4" & info [ "threads" ] ~doc)

let duration_arg =
  let doc = "Seconds per measured point." in
  Arg.(value & opt float 0.25 & info [ "duration" ] ~doc)

let paper_scale_arg =
  let doc =
    "Use the paper's key ranges (10K for lists, 100K for the rest) instead \
     of container-sized ones."
  in
  Arg.(value & flag & info [ "paper-scale" ] ~doc)

let no_uaf_arg =
  let doc = "Disable the use-after-free detector during measurement." in
  Arg.(value & flag & info [ "no-uaf-check" ] ~doc)

let exps_arg =
  let doc =
    "Experiments to run: fig8..fig23, tab1, tab2, alg5, thresholds, \
     stalled, hotpath, step. Default: all."
  in
  Arg.(value & pos_right (-1) string [] & info [] ~docv:"EXP" ~doc)

let json_arg =
  let doc =
    "Also serialize every measured (experiment, structure, scheme, threads) \
     row as JSON to $(docv), for tracking benchmark trajectories across \
     commits."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let main threads duration paper_scale no_uaf json exps =
  if no_uaf then Smr_core.Mem.set_checking false;
  let settings =
    {
      E.threads_list = parse_threads threads;
      duration;
      paper_scale;
    }
  in
  (* strip a leading "exp" subcommand word if present *)
  let exps = List.filter (fun e -> e <> "exp") exps in
  run_exps settings exps;
  Option.iter Bench_harness.Results.write json

let cmd =
  let doc = "Regenerate the tables and figures of the HP++ paper" in
  Cmd.v
    (Cmd.info "hp-plus-bench" ~doc)
    Term.(
      const main $ threads_arg $ duration_arg $ paper_scale_arg $ no_uaf_arg
      $ json_arg $ exps_arg)

let () = exit (Cmd.eval cmd)
