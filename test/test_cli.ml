(* The command-line binaries reject bad flag values with a cmdliner usage
   error (exit 124, a message naming the option) while parsing, before any
   work starts; the bench binaries also open --json before the run so an
   unwritable path fails first. *)

let binaries =
  [ ("shardkv_bench", "../bin/shardkv_bench.exe");
    ("netkv_bench", "../bin/netkv_bench.exe") ]

(* Run [exe args], returning (exit code, stderr, wall seconds). *)
let run exe args =
  let err = Filename.temp_file "test_cli" ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null fd
  in
  let _, status = Unix.waitpid [] pid in
  let wall = Unix.gettimeofday () -. t0 in
  Unix.close fd;
  Unix.close null;
  let text = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 1000 + s
  in
  (code, text, wall)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_usage_error exe args ~option =
  let code, err, _ = run exe args in
  let what = String.concat " " args in
  Alcotest.(check int) (what ^ ": usage-error exit") 124 code;
  Alcotest.(check bool) (what ^ ": names " ^ option) true (contains err option);
  Alcotest.(check bool)
    (what ^ ": no uncaught exception")
    false
    (contains err "internal error")

let test_bad_values exe () =
  check_usage_error exe [ "--schemes"; "HP,XYZ" ] ~option:"--schemes";
  check_usage_error exe [ "--dist"; "gaussian" ] ~option:"--dist";
  check_usage_error exe [ "--theta"; "1.5" ] ~option:"--theta";
  check_usage_error exe [ "--theta"; "0" ] ~option:"--theta";
  check_usage_error exe [ "--theta"; "abc" ] ~option:"--theta"

(* A long run requested with an unwritable --json path must fail at once. *)
let test_json_opened_first exe () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "no-such-dir/out.json" in
  check_usage_error exe [ "--duration"; "30"; "--json"; path ] ~option:"--json";
  let _, _, wall = run exe [ "--duration"; "30"; "--json"; path ] in
  Alcotest.(check bool) "fails before the run" true (wall < 10.0)

let test_model_check_kill () =
  let exe = "../bin/model_check.exe" in
  check_usage_error exe [ "sweep"; "--kill"; "nope:3" ] ~option:"--kill";
  check_usage_error exe [ "random"; "--kill"; "reclaim:x" ] ~option:"--kill";
  check_usage_error exe [ "sweep"; "--kill"; "reclaim" ] ~option:"--kill"

(* An unknown structure or scheme name is a usage error, not a case left
   out of the sweep. *)
let test_model_check_names () =
  let exe = "../bin/model_check.exe" in
  check_usage_error exe
    [ "sweep"; "--ds"; "efrbtree,nmtree"; "--scheme"; "HP++,Bogus" ]
    ~option:"--scheme";
  check_usage_error exe [ "sweep"; "--ds"; "efrbtree,bogus" ] ~option:"--ds";
  check_usage_error exe [ "random"; "--ds"; "bogus" ] ~option:"--ds"

let test_netkv_server_scheme () =
  check_usage_error "../bin/netkv_server.exe" [ "--scheme"; "bogus" ]
    ~option:"--scheme"

(* soak's ROUNDS, DOMAINS, --trace-depth and --every. Every value here is
   rejected, so no case starts a round or spawns a domain. *)
let test_soak_bounds () =
  let exe = "../bin/soak.exe" in
  check_usage_error exe [ "0" ] ~option:"ROUNDS";
  check_usage_error exe [ "-3" ] ~option:"ROUNDS";
  check_usage_error exe [ "1"; "0" ] ~option:"DOMAINS";
  check_usage_error exe [ "1"; "129" ] ~option:"DOMAINS";
  check_usage_error exe [ "--trace-depth"; "0" ] ~option:"--trace-depth";
  check_usage_error exe [ "--every=-1" ] ~option:"--every";
  check_usage_error exe [ "--every"; "nan" ] ~option:"--every"

let test_json_written () =
  let path = Filename.temp_file "test_cli" ".json" in
  let code, err, _ =
    run "../bin/shardkv_bench.exe"
      [ "--schemes"; "NR"; "--shards"; "1"; "--domains"; "1";
        "--duration"; "0.02"; "--keys"; "64"; "--json"; path ]
  in
  Alcotest.(check int) ("exit 0 (" ^ err ^ ")") 0 code;
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "json carries the cell" true
    (contains text "\"cells\":[{")

let () =
  Alcotest.run "cli"
    (List.map
       (fun (name, exe) ->
         ( name,
           [
             Alcotest.test_case "bad values are usage errors" `Quick
               (test_bad_values exe);
             Alcotest.test_case "--json opened before the run" `Quick
               (test_json_opened_first exe);
           ] ))
       binaries
    @ [ ("json", [ Alcotest.test_case "written through the early channel" `Quick test_json_written ]);
        ( "model_check",
          [ Alcotest.test_case "bad --kill is a usage error" `Quick
              test_model_check_kill;
            Alcotest.test_case "unknown --ds/--scheme names are usage errors"
              `Quick test_model_check_names ] );
        ( "netkv_server",
          [ Alcotest.test_case "bad --scheme is a usage error" `Quick
              test_netkv_server_scheme ] );
        ( "soak",
          [ Alcotest.test_case "out-of-range values are usage errors" `Quick
              test_soak_bounds ] ) ])
