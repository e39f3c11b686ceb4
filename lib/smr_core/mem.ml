exception Use_after_free of int
exception Double_retire of int
exception Invalid_free of int

(* One word per header: [uid | incoming-link count | state], uid in the
   high bits so an arithmetic shift recovers negative uids (the phantom's
   -2). The count is RC's; every other scheme leaves it at 1.

   A header is any block whose field 1 holds that word: a node whose
   second declared field is [mutable hdr : cell], viewed through
   [of_node], or the two-field block [make] builds. Reads are plain loads
   of field 1; every write is a CAS on it through [cas_word], a [noalloc]
   call into the runtime's [caml_atomic_cas_field]. The word is always an
   immediate, so that CAS's write barrier has nothing to record.

   The invariant that makes [of_node]'s cast sound: its argument is a
   record whose field 1 is a [mutable] [cell]. [cell] is abstract, so
   nothing outside this module reads or writes the field; [mutable] keeps
   the compiler from sharing the block or lifting it to a static constant,
   and field 0 (whatever the node keeps there) is never touched here. *)
type cell = int
type header = { _owner : Obj.t; mutable word : cell }

external cas_word : header -> cell -> cell -> bool = "smr_mem_cas_word"
[@@noalloc]

let[@inline] of_node (n : 'a) : header = Obj.magic n

let state_live = 0
let state_retired = 1
let state_freed = 2
let state_mask = 3
let count_shift = 2
let count_bits = 20
let count_max = (1 lsl count_bits) - 1
let count_one = 1 lsl count_shift
let uid_shift = count_shift + count_bits
let max_uid = max_int asr uid_shift

let pack ~uid ~count ~state =
  (uid lsl uid_shift) lor (count lsl count_shift) lor state

let[@inline] uid_of_word w = w asr uid_shift
let count_of_word w = (w lsr count_shift) land count_max

let enabled = Atomic.make true

(* Uids are drawn from per-domain blocks so header allocation does not
   contend on one global counter: a domain grabs [uid_block] ids at a time
   and hands them out locally. Uids stay globally unique (the only property
   scans rely on) but are no longer globally ordered. The packed-range check
   runs once per block, off the per-allocation path. *)
let uid_block = 1024
let uid_counter = Atomic.make 0

type uid_cursor = { mutable next : int; mutable limit : int }

let uid_key = Domain.DLS.new_key (fun () -> { next = 0; limit = 0 })

let fresh_uid () =
  let c = Domain.DLS.get uid_key in
  if c.next >= c.limit then begin
    let base = Atomic.fetch_and_add uid_counter uid_block in
    if base > max_uid - uid_block + 1 then
      failwith
        (Printf.sprintf
           "Mem.fresh_uid: uid block %d exceeds the packed range (max %d)" base
           max_uid);
    c.next <- base;
    c.limit <- base + uid_block
  end;
  let uid = c.next in
  c.next <- uid + 1;
  uid

let set_uid_counter n = Atomic.set uid_counter n
let uid_counter_value () = Atomic.get uid_counter

module Trace = Obs.Trace

let cell stats =
  Stats.on_alloc stats;
  let uid = fresh_uid () in
  if Trace.enabled () then Trace.emit Trace.Alloc uid 0 0;
  pack ~uid ~count:1 ~state:state_live

let make stats = { _owner = Obj.repr (); word = cell stats }

(* A shared placeholder header: array filler for retire batches. Never
   retired, freed or dereferenced. Its uid is -2, NOT -1: -1 is the "no
   node" sentinel of Step trace events (Ds_common.uid_of_hdr), and the two
   must stay distinguishable in traces — the replay checker rejects any
   event carrying the phantom uid. *)
let phantom_uid = -2
let phantom =
  {
    _owner = Obj.repr ();
    word = pack ~uid:phantom_uid ~count:1 ~state:state_live;
  }

let[@inline] uid h = uid_of_word h.word

let reject_phantom op h =
  if uid h = phantom_uid then
    invalid_arg ("Mem." ^ op ^ ": phantom header escaped into a retire/free path")

let ref_count h = count_of_word h.word

let rec incr_ref h =
  let w = h.word in
  if count_of_word w = count_max then
    failwith "Mem.incr_ref: incoming-link count overflows its field";
  if not (cas_word h w (w + count_one)) then incr_ref h

let rec decr_ref h =
  let w = h.word in
  match count_of_word w with
  | 0 -> invalid_arg "Mem.decr_ref: incoming-link count already zero"
  | c -> if cas_word h w (w - count_one) then c = 1 else decr_ref h

let state h = h.word land state_mask
let is_live h = state h = state_live
let is_retired h = state h = state_retired
let is_freed h = state h = state_freed

(* Move the state bits from one allowed state to [next] and return the
   state left. A failed CAS means the word moved under us — only the count
   bits can, unless a racing transition won — so re-read and re-check.
   Returns -1 when the state read was not allowed. *)
let rec transition h ~allowed ~next =
  let w = h.word in
  let s = w land state_mask in
  if not (allowed s) then -1
  else if cas_word h w (w land lnot state_mask lor next) then s
  else transition h ~allowed ~next

(* Each mark counts in [stats] right where it emits its trace event, so the
   counters are a projection of the event stream: #Retire + #Free{a=1} =
   retired_total, #Free = freed. *)
let retire_mark stats h =
  reject_phantom "retire_mark" h;
  if transition h ~allowed:(fun s -> s = state_live) ~next:state_retired < 0
  then raise (Double_retire (uid h));
  Stats.on_retire stats;
  if Trace.enabled () then Trace.emit Trace.Retire (uid h) 0 0;
  (* Crash window: the block is marked retired but its header has not yet
     reached any retire bag. A kill here leaks the block (no survivor can
     find it) — which is exactly what dying between the mark and the push
     means, and what chaos tests must tolerate. *)
  if Fault.enabled () then Fault.hit Fault.Retire

let free_mark stats h =
  reject_phantom "free_mark" h;
  if transition h ~allowed:(fun s -> s = state_retired) ~next:state_freed < 0
  then raise (Invalid_free (uid h));
  Stats.on_free stats;
  if Trace.enabled () then Trace.emit Trace.Free (uid h) 0 0

(* A cascade that reaches a still-live block retires it late: counted as a
   retire and a free, traced as one Free with [a = 1]. *)
let free_mark_cascade stats h =
  reject_phantom "free_mark_cascade" h;
  let s = transition h ~allowed:(fun s -> s <> state_freed) ~next:state_freed in
  if s < 0 then raise (Invalid_free (uid h));
  let late = s = state_live in
  if late then Stats.on_retire stats;
  Stats.on_free stats;
  if Trace.enabled () then Trace.emit Trace.Free (uid h) (Bool.to_int late) 0

let discard stats h =
  reject_phantom "discard" h;
  if transition h ~allowed:(fun s -> s = state_live) ~next:state_freed < 0
  then raise (Invalid_free (uid h));
  Stats.on_discard stats;
  if Trace.enabled () then Trace.emit Trace.Free (uid h) 2 0

(* The dereference check inlines into every traversal step; the raise
   stays out of line so the step carries one call only on its cold path. *)
let[@inline never] use_after_free h = raise (Use_after_free (uid h))

let[@inline] check_access h =
  if Atomic.get enabled && h.word land state_mask = state_freed then
    use_after_free h

let set_checking b = Atomic.set enabled b
let checking () = Atomic.get enabled
