(* The paper's one-word tagged pointer, in three shapes that one header read
   tells apart:

   - a clean non-null value is the node block itself (a record, tag 0);
   - a null value is an immediate: the integer is its tag;
   - a non-null value with tag bits set is a [Mark] block (tag 1) holding
     the node and the bits.

   So [make n] allocates nothing and a traversal step that reads a clean
   link loads the node and nothing else. [view] reinterprets a non-null
   value as [mark]; its [Clean] arm is never built, it stands for the
   node's own tag-0 header. The
   invariant that makes the casts sound: every node type stored in a
   tagged value is a record with at least one non-float field. *)

type 'a t = Obj.t
type 'a safe = 'a t
type shape = Null | Ptr

type 'a mark = Clean of 'a | Mark of 'a * int [@@warning "-37"]

let deleted_bit = 1
let invalid_bit = 2

let[@inline] view (t : 'a t) : 'a mark = Obj.obj t
let[@inline] is_null t = Obj.is_int t
let null = Obj.repr 0
let invalid = Obj.repr invalid_bit

let[@inline] make ?(tag = 0) n =
  if tag = 0 then Obj.repr n else Obj.repr (Mark (n, tag))

let of_option ?(tag = 0) = function
  | Some n -> make ~tag n
  | None -> Obj.repr tag

let[@inline] shape t = if is_null t then Null else Ptr

(* No null check: on an immediate, [view] would read the word below it.
   Every caller has ruled null out, and a raising branch here would make
   the compiler spill the traversal loops' registers on every step. *)
let[@inline] node t =
  match view t with Mark (n, _) -> n | Clean _ -> (Obj.obj t : 'a)

external raw : 'a safe -> 'a t = "%identity"

let[@inline] header t = Mem.of_node (node t)

external validated : 'a t -> 'a safe = "%identity"
external owned : 'a t -> 'a safe = "%identity"
external sentinel : 'a t -> 'a safe = "%identity"
external quiescent : 'a t -> 'a safe = "%identity"

let[@inline] tag t =
  if is_null t then (Obj.obj t : int)
  else match view t with Mark (_, tag) -> tag | Clean _ -> 0

let[@inline] is_deleted t = tag t land deleted_bit <> 0
let[@inline] is_invalid t = tag t land invalid_bit <> 0

let[@inline] with_tag t tag =
  if is_null t then Obj.repr tag else make ~tag (node t)

let set_bits t bits = with_tag t (tag t lor bits)
let untagged t = if tag t = 0 then t else with_tag t 0

let[@inline] same_ptr a b =
  a == b
  ||
  if is_null a then is_null b
  else (not (is_null b)) && node a == node b
