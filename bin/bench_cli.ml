(* Command-line converters shared by shardkv_bench, netkv_bench,
   netkv_server and soak. A bad value becomes a cmdliner usage error (exit
   124) while the command line is parsed, before any work starts, instead
   of an uncaught exception. *)

open Cmdliner

let scheme = Arg.enum (List.map (fun s -> (s, s)) Schemes.names)
let schemes = Arg.list scheme

let dist = Arg.enum [ ("uniform", "uniform"); ("zipfian", "zipfian") ]

let theta =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 && x < 1.0 -> Ok x
    | _ ->
        Error
          (`Msg (Printf.sprintf "%S is not a number strictly between 0 and 1" s))
  in
  Arg.conv ~docv:"THETA" (parse, Format.pp_print_float)

let int_range ~min ~max =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min && n <= max -> Ok n
    | _ when max = max_int ->
        Error (`Msg (Printf.sprintf "%S is not an integer >= %d" s min))
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "%S is not an integer between %d and %d" s min max))
  in
  Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

let non_negative_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when x >= 0.0 && Float.is_finite x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "%S is not a finite number >= 0" s))
  in
  Arg.conv ~docv:"NUM" (parse, Format.pp_print_float)

(* The JSON output file is opened during parsing, so an unwritable path
   fails before the run instead of after it. *)
type json_out = { path : string; oc : out_channel }

let json_out =
  let parse path =
    match open_out path with
    | oc -> Ok { path; oc }
    | exception Sys_error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"FILE" (parse, fun ppf o -> Format.pp_print_string ppf o.path)

let write_json out j =
  Fun.protect
    ~finally:(fun () -> close_out out.oc)
    (fun () -> Service.Json.output out.oc j)
