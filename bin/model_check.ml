(* Model-based checking CLI: enumerate or sample deterministic schedules of
   small concurrent op scripts against the sequential reference models, and
   manage the shrunk-counterexample corpus.

     model_check sweep  --ds treiber,msqueue --scheme HP,EBR --threads 2 --ops 2
     model_check random --ds hashmap --schedules 200 --kill retire:2
     model_check replay test/check_corpus/*.case
     model_check replay --expect-violation old.case   (pre-fix demonstration)
     model_check show FILE.case

   Exits 0 when clean / all expectations met, 1 on a violation (or a
   missed expected violation), 124 on a malformed command line, 2 when
   replay is given no files. *)

open Cmdliner
module Gen = Check.Gen
module Sut = Check.Sut
module Harness = Check.Harness
module Explore = Check.Explore
module Shrink = Check.Shrink
module Corpus = Check.Corpus

(* A comma-separated list of names drawn from [names]: an unknown one is a
   usage error naming the option, not a case silently left out. *)
let names_arg name names default what =
  let doc =
    Printf.sprintf "Comma-separated %s (%s)." what (String.concat ", " names)
  in
  let names = Arg.enum (List.map (fun n -> (n, n)) names) in
  Arg.(value & opt (list names) default & info [ name ] ~doc)

let ds_arg = names_arg "ds" Sut.structures [ "treiber"; "msqueue" ] "structures"
let scheme_arg = names_arg "scheme" Schemes.names Schemes.names "schemes"

let threads_arg =
  Arg.(value & opt int 2 & info [ "threads" ] ~doc:"Logical threads.")

let ops_arg =
  Arg.(value & opt int 2 & info [ "ops" ] ~doc:"Ops per thread.")

let keyspace_arg =
  Arg.(value & opt int 2 & info [ "keyspace" ] ~doc:"Distinct keys for map scripts.")

let threshold_arg =
  Arg.(
    value & opt int 1
    & info [ "threshold" ]
        ~doc:"Reclaim threshold for the scheme under test (small = aggressive).")

let preemptions_arg =
  Arg.(
    value & opt int 2
    & info [ "preemptions" ] ~doc:"Preemption bound for exhaustive sweeps.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Script-generation seed.")

let schedules_arg =
  Arg.(
    value & opt int 100
    & info [ "schedules" ] ~doc:"Random schedules per case (random mode).")

let max_runs_arg =
  Arg.(
    value & opt int max_int
    & info [ "max-runs" ] ~doc:"Cap on schedules per case (sweep mode).")

let max_wall_arg =
  Arg.(
    value & opt int max_int
    & info [ "max-wall-ms" ] ~doc:"Wall-clock budget per (ds, scheme) case.")

let traced_arg =
  Arg.(
    value & flag
    & info [ "traced" ]
        ~doc:"Record traces and replay them through the protocol checker.")

(* POINT:AFTER, checked while the command line is parsed: a bad value is
   a usage error naming --kill, not an exception after start-up. *)
let kill =
  let names = List.map Fault.point_name Fault.all_points in
  let parse s =
    match String.split_on_char ':' s with
    | [ p; n ] -> (
        match
          ( List.find_opt (fun q -> Fault.point_name q = p) Fault.all_points,
            int_of_string_opt n )
        with
        | Some q, Some n -> Ok (q, n)
        | None, _ ->
            Error
              (`Msg
                 (Printf.sprintf "unknown fault point %S (one of: %s)" p
                    (String.concat ", " names)))
        | _, None ->
            Error (`Msg (Printf.sprintf "AFTER must be an integer, got %S" n)))
    | _ -> Error (`Msg (Printf.sprintf "%S is not POINT:AFTER" s))
  in
  let print ppf (q, n) = Format.fprintf ppf "%s:%d" (Fault.point_name q) n in
  Arg.conv ~docv:"POINT:AFTER" (parse, print)

let kill_arg =
  let doc = "Arm a kill: POINT:AFTER, e.g. retire:2." in
  Arg.(value & opt (some kill) None & info [ "kill" ] ~docv:"POINT:AFTER" ~doc)

let out_arg =
  let doc = "Directory for shrunk counterexample .case files." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)

let no_shrink_arg =
  Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip counterexample minimization.")

let cases ~dss ~schemes ~threads ~ops ~keyspace ~threshold ~seed ~fault ~traced
    =
  List.concat_map
    (fun ds ->
      List.filter_map
        (fun scheme ->
          match Sut.find ~ds ~scheme with
          | None -> None
          | Some m ->
              let module M = (val m : Sut.SUT) in
              let scripts =
                Gen.scripts M.kind ~seed ~threads ~nops:ops ~keyspace
              in
              Some
                { Harness.ds; scheme; threshold; scripts; fault; traced })
        schemes)
    dss

let report_violation ~out ~no_shrink case (report : Harness.report) =
  let v =
    match report.outcome with `Violation v -> v | _ -> assert false
  in
  Printf.printf "VIOLATION %s: %s\n  %s\n" (Harness.vkind_name v.vkind)
    (Harness.case_to_string case) v.detail;
  let case, report =
    if no_shrink then (case, report)
    else begin
      let refind c choices = Explore.refind c choices in
      let c, r = Shrink.shrink ~refind case report in
      Printf.printf "  shrunk to: %s (%d decisions)\n"
        (Harness.case_to_string c)
        (Array.length r.choices);
      (c, r)
    end
  in
  let v =
    match report.outcome with `Violation v -> v | _ -> assert false
  in
  (match out with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let name =
        Printf.sprintf "%s-%s-%s.case" case.Harness.ds
          (String.map
             (function '+' -> 'p' | c -> c)
             case.Harness.scheme)
          (Harness.vkind_name v.vkind)
      in
      let path = Filename.concat dir name in
      Corpus.save path
        {
          Corpus.case;
          choices = report.choices;
          expect = Some v.vkind;
          notes = [ "found by model_check; schedule pinned post-shrink" ];
        };
      Printf.printf "  corpus entry written: %s\n" path);
  ()

let sweep dss schemes threads ops keyspace threshold preemptions seed max_runs
    max_wall traced fault out no_shrink =
  let found = ref 0 and clean = ref 0 and budget = ref 0 in
  List.iter
    (fun (case : Harness.case) ->
      if Sys.getenv_opt "MC_DEBUG" <> None then
        Printf.eprintf "case: %s\n%!" (Harness.case_to_string case);
      match
        Explore.dfs ~preemptions ~max_runs ~max_wall_ms:max_wall (fun policy ->
            Harness.run_case ~policy case)
      with
      | `Found (r, runs) ->
          incr found;
          Printf.printf "[%s/%s] violation after %d schedules\n" case.ds
            case.scheme runs;
          report_violation ~out ~no_shrink case r
      | `Clean runs ->
          incr clean;
          Printf.printf "[%s/%s] clean: %d schedules exhausted (preemptions<=%d)\n"
            case.ds case.scheme runs preemptions
      | `Budget runs ->
          incr budget;
          Printf.printf "[%s/%s] budget hit after %d schedules, no violation\n"
            case.ds case.scheme runs)
    (cases ~dss ~schemes ~threads ~ops ~keyspace ~threshold ~seed ~fault
       ~traced);
  Printf.printf "sweep: %d clean, %d budget-capped, %d violating\n" !clean
    !budget !found;
  if !found > 0 then 1 else 0

let random dss schemes threads ops keyspace threshold seed schedules traced
    fault out no_shrink =
  let found = ref 0 in
  List.iter
    (fun (case : Harness.case) ->
      let rec go s =
        if s >= schedules then
          Printf.printf "[%s/%s] %d random schedules clean\n" case.ds
            case.scheme schedules
        else begin
          let policy =
            Explore.random_policy ~seed:(seed + (s * 0x9E3779B9)) ()
          in
          let r = Harness.run_case ~policy case in
          match r.outcome with
          | `Violation _ ->
              incr found;
              Printf.printf "[%s/%s] violation at schedule seed %d\n" case.ds
                case.scheme s;
              report_violation ~out ~no_shrink case r
          | `Pass | `Overflow -> go (s + 1)
        end
      in
      go 0)
    (cases ~dss ~schemes ~threads ~ops ~keyspace ~threshold ~seed ~fault
       ~traced);
  if !found > 0 then 1 else 0

let replay expect_violation files =
  if files = [] then begin
    prerr_endline "replay: no .case files given";
    2
  end
  else begin
    let bad = ref 0 in
    List.iter
      (fun path ->
        let e = Corpus.load path in
        let r = Corpus.replay e in
        match (r.outcome, expect_violation) with
        | `Pass, false -> Printf.printf "%s: pass\n" path
        | `Violation v, true
          when match e.expect with
               | None -> true
               | Some k -> k = v.vkind ->
            Printf.printf "%s: reproduced %s violation\n" path
              (Harness.vkind_name v.vkind)
        | `Violation v, false ->
            incr bad;
            Printf.printf "%s: VIOLATION %s — %s\n" path
              (Harness.vkind_name v.vkind) v.detail
        | `Pass, true ->
            incr bad;
            Printf.printf "%s: expected a violation, got pass\n" path
        | `Violation v, true ->
            incr bad;
            Printf.printf "%s: expected %s, got %s — %s\n" path
              (match e.expect with
              | Some k -> Harness.vkind_name k
              | None -> "?")
              (Harness.vkind_name v.vkind) v.detail
        | `Overflow, _ ->
            incr bad;
            Printf.printf "%s: schedule overflow (corpus entry stale?)\n" path)
      files;
    if !bad > 0 then 1 else 0
  end

let show path =
  let e = Corpus.load path in
  print_string (Corpus.to_string e);
  let r = Corpus.replay e in
  Printf.printf "--- outcome: %s; %d steps; trail:\n%s\n"
    (match r.outcome with
    | `Pass -> "pass"
    | `Overflow -> "overflow"
    | `Violation v -> "violation " ^ Harness.vkind_name v.vkind)
    r.steps
    (Harness.render_trail r.trail);
  0

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep" ~doc:"Bounded-exhaustive schedule enumeration")
    Term.(
      const sweep $ ds_arg $ scheme_arg $ threads_arg $ ops_arg $ keyspace_arg
      $ threshold_arg $ preemptions_arg $ seed_arg $ max_runs_arg
      $ max_wall_arg $ traced_arg $ kill_arg $ out_arg $ no_shrink_arg)

let random_cmd =
  Cmd.v
    (Cmd.info "random" ~doc:"Seeded random schedules")
    Term.(
      const random $ ds_arg $ scheme_arg $ threads_arg $ ops_arg $ keyspace_arg
      $ threshold_arg $ seed_arg $ schedules_arg $ traced_arg $ kill_arg
      $ out_arg $ no_shrink_arg)

let replay_cmd =
  let expect_arg =
    Arg.(
      value & flag
      & info [ "expect-violation" ]
          ~doc:"Assert each entry reproduces its recorded violation \
                (pre-fix demonstration) instead of asserting it passes.")
  in
  let files_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"FILE.case")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay corpus entries under their pinned schedules")
    Term.(const replay $ expect_arg $ files_arg)

let show_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.case")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a corpus entry and its schedule trail")
    Term.(const show $ file_arg)

let cmd =
  Cmd.group
    (Cmd.info "model_check"
       ~doc:"Model-based checking with a deterministic scheduler")
    [ sweep_cmd; random_cmd; replay_cmd; show_cmd ]

let () = exit (Cmd.eval' cmd)
