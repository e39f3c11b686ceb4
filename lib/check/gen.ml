module Rng = Smr_core.Rng

type op =
  | Insert of int * int
  | Remove of int
  | Get of int
  | Push of int
  | Pop
  | Enq of int
  | Deq

type kind = KMap | KStack | KQueue

let kind_name = function KMap -> "map" | KStack -> "stack" | KQueue -> "queue"

let op_to_string = function
  | Insert (k, v) -> Printf.sprintf "ins %d %d" k v
  | Remove k -> Printf.sprintf "del %d" k
  | Get k -> Printf.sprintf "get %d" k
  | Push v -> Printf.sprintf "push %d" v
  | Pop -> "pop"
  | Enq v -> Printf.sprintf "enq %d" v
  | Deq -> "deq"

let op_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "ins"; k; v ] -> Insert (int_of_string k, int_of_string v)
  | [ "del"; k ] -> Remove (int_of_string k)
  | [ "get"; k ] -> Get (int_of_string k)
  | [ "push"; v ] -> Push (int_of_string v)
  | [ "pop" ] -> Pop
  | [ "enq"; v ] -> Enq (int_of_string v)
  | [ "deq" ] -> Deq
  | _ -> failwith ("Gen.op_of_string: " ^ s)

(* Values are [(tid + 1) * 1000 + position]: globally unique, and a value
   seen in a result names exactly one (thread, op). *)
let script kind ~rng ~tid ~nops ~keyspace =
  List.init nops (fun i ->
      let v = ((tid + 1) * 1000) + i in
      match kind with
      | KMap ->
          let key = Rng.below rng keyspace in
          let r = Rng.below rng 10 in
          if r < 4 then Insert (key, v)
          else if r < 7 then Remove key
          else Get key
      | KStack -> if Rng.below rng 10 < 6 then Push v else Pop
      | KQueue -> if Rng.below rng 10 < 6 then Enq v else Deq)

let scripts kind ~seed ~threads ~nops ~keyspace =
  let rng = Rng.create ~seed in
  Array.init threads (fun tid -> script kind ~rng ~tid ~nops ~keyspace)
