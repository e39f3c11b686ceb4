type 'a t = Null of int | Ptr of 'a * int

let deleted_bit = 1
let invalid_bit = 2

let null = Null 0
let invalid = Null invalid_bit
let make ?(tag = 0) n = Ptr (n, tag)

let of_option ?(tag = 0) = function
  | Some n -> Ptr (n, tag)
  | None -> Null tag

let[@inline] tag = function Null tag | Ptr (_, tag) -> tag

let get_exn = function
  | Ptr (n, _) -> n
  | Null _ -> invalid_arg "Tagged.get_exn: null pointer"

let[@inline] is_null = function Null _ -> true | Ptr _ -> false
let[@inline] is_deleted t = tag t land deleted_bit <> 0
let[@inline] is_invalid t = tag t land invalid_bit <> 0

let[@inline] with_tag t tag =
  match t with Null _ -> Null tag | Ptr (n, _) -> Ptr (n, tag)

let set_bits t bits = with_tag t (tag t lor bits)
let untagged t = if tag t = 0 then t else with_tag t 0

let[@inline] same_ptr a b =
  match (a, b) with
  | Null _, Null _ -> true
  | Ptr (x, _), Ptr (y, _) -> x == y
  | _ -> false
