(* smr-lint: allow R5 — shardkv demo internals consumed only by bin/ and test/; the service layer is an integration exercise, not a published API *)
(** A minimal JSON document builder — enough for machine-readable benchmark
    and service-stats output without adding a dependency the container may
    not have. Emission only; no parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr x =
  match Float.classify_float x with
  | FP_nan | FP_infinite -> "null"
  | _ ->
      let s = Printf.sprintf "%.17g" x in
      (* prefer the shortest representation that round-trips *)
      let short = Printf.sprintf "%.6g" x in
      if float_of_string short = x then short else s

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          add buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  add buf j;
  Buffer.contents buf

let output oc j =
  output_string oc (to_string j);
  output_char oc '\n'

let write_file path j =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output oc j)
