(* The abstract protection-state lattice (DESIGN.md §15).

   One value per tracked *object* — a site-allocated abstraction of a node
   (or bag) fetched from shared state. The order is a protection-confidence
   chain: join at a CFG merge keeps the weakest guarantee either path
   established, so a read after a retire on some path is reported. [Bot]
   is the identity (unreached path). [Neutral] tracks values the analysis
   identifies but makes no protection claim about (locally constructed
   records, opaque parameters); [Quiescent] marks values read through
   [Link.get_quiescent], whose contract (no concurrent writers) needs no
   protection window. *)

type state =
  | Bot  (** unreached; identity of {!join} *)
  | Invalidated  (** invalidation observed or performed: frozen, dying *)
  | Handed_off  (** ownership transferred to the background collector *)
  | Retired  (** retired without a surviving protection window *)
  | Raw  (** fetched from a shared link, not yet protected *)
  | Protected  (** hazard slot published, not yet validated *)
  | Validated  (** protection validated *)
  | Quiescent  (** read under the declared no-concurrent-writers contract *)
  | Neutral  (** tracked but carrying no protection obligation *)

(* Confidence rank; join takes the minimum (weakest guarantee wins). *)
let rank = function
  | Bot -> max_int
  | Invalidated -> 0
  | Handed_off -> 1
  | Retired -> 2
  | Raw -> 3
  | Protected -> 4
  | Validated -> 5
  | Quiescent -> 6
  | Neutral -> 7

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | a, b -> if rank a <= rank b then a else b

(* The chain is finite (height 8), so joining is its own widening; [widen]
   exists as a named operator so the solver's loop-head sites read as
   intended and the ascending-chain bound is testable in isolation. *)
let widen = join
let leq a b = join a b = b
let equal (a : state) b = a = b

let height = 8
(** Longest strictly ascending chain: every Bot-seeded iteration sequence
    stabilizes after at most [height - 1] joins per object. *)

let to_string = function
  | Bot -> "bot"
  | Invalidated -> "invalidated"
  | Handed_off -> "handed-off"
  | Retired -> "retired"
  | Raw -> "raw"
  | Protected -> "protected"
  | Validated -> "validated"
  | Quiescent -> "quiescent"
  | Neutral -> "neutral"

let all =
  [ Bot; Invalidated; Handed_off; Retired; Raw; Protected; Validated;
    Quiescent; Neutral ]

(* --- Abstract facts: per-object state plus a published bit -------------- *)

(* [published] records that the object itself was stored back into shared
   state (the new-value side of a CAS/set): retiring a published object is
   the retire-after-publish flow error. Or-joined: published on any path is
   enough to make a later retire suspicious. *)
type fact = { st : state; published : bool }

let bot_fact = { st = Bot; published = false }

let join_fact a b =
  { st = join a.st b.st; published = a.published || b.published }

let fact_equal a b = equal a.st b.st && a.published = b.published

(* --- Whole-program-point state ------------------------------------------ *)

(* A program point's abstract state: one fact per object id, plus a
   reachability flag ([None] = point not reached; joining anything with an
   unreached point is the identity). Arrays are sized by the CFG's object
   count, fixed per file. *)
type t = fact array option

let unreached : t = None
let entry n : t = Some (Array.make (max n 1) bot_fact)

let copy (s : t) = Option.map Array.copy s

let join_state (a : t) (b : t) : t =
  match (a, b) with
  | None, x | x, None -> copy x
  | Some a, Some b -> Some (Array.init (Array.length a) (fun i -> join_fact a.(i) b.(i)))

let state_equal (a : t) (b : t) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      let n = Array.length a in
      Array.length b = n
      &&
      let rec go i = i >= n || (fact_equal a.(i) b.(i) && go (i + 1)) in
      go 0
  | _ -> false
