module Trace = Obs.Trace

(* A participant's presence word: 0 when quiescent, [epoch * 2 + 1] when
   inside a critical section pinned at [epoch]. One word so that pin/unpin
   are single SC stores. *)
let quiescent = 0
let pinned_at epoch = (epoch lsl 1) lor 1
let is_pinned status = status land 1 = 1
let pinned_epoch status = status lsr 1

type participant = {
  status : int Atomic.t;
  alive : bool Atomic.t;
  neutralized : bool Atomic.t;
}

type t = { epoch : int Atomic.t; participants : participant list Atomic.t }

let create () = { epoch = Atomic.make 0; participants = Atomic.make [] }
let[@inline] current t = Atomic.get t.epoch

let rec push_participant t p =
  let cur = Atomic.get t.participants in
  if not (Atomic.compare_and_set t.participants cur (p :: cur)) then
    push_participant t p

let register t =
  let p =
    {
      status = Atomic.make quiescent;
      alive = Atomic.make true;
      neutralized = Atomic.make false;
    }
  in
  push_participant t p;
  p

let pin t p =
  Atomic.set p.status (pinned_at (Atomic.get t.epoch));
  (* Crash window: the critical section is pinned. A kill leaves this
     participant pinning the epoch until report_crashed marks it dead (EBR's
     non-robustness) or, under PEBR, until memory pressure neutralizes it;
     a stall parks the victim pinned. *)
  if Fault.enabled () then Fault.hit Fault.Crit

let unpin p = Atomic.set p.status quiescent
let leave p = Atomic.set p.alive false
let neutralized p = Atomic.get p.neutralized
let clear_neutralized p = Atomic.set p.neutralized false

(* Advance the epoch. Without [force], every live pinned participant must
   have observed the current epoch, so a stalled critical section pins it:
   exactly EBR's non-robustness. With [force] (PEBR under memory pressure),
   laggards are {e neutralized} — their blanket epoch protection is
   withdrawn, only their shields remain — and the advance proceeds
   regardless. Either way, a participant that stays non-neutralized and
   pinned at [e] guarantees the epoch is at most [e + 1], the grace period
   the freeing rules rely on. Dead participants met along the way are
   pruned (best-effort CAS: losing to a concurrent register postpones the
   pruning to the next attempt) instead of being rescanned forever. *)
let try_advance ?(force = false) t =
  let epoch = Atomic.get t.epoch in
  let ps = Atomic.get t.participants in
  let all_clear = ref true and any_dead = ref false in
  List.iter
    (fun p ->
      if not (Atomic.get p.alive) then any_dead := true
      else
        let s = Atomic.get p.status in
        if is_pinned s && pinned_epoch s <> epoch then
          if force then Atomic.set p.neutralized true
          else all_clear := false)
    ps;
  if !any_dead then begin
    let pruned = List.filter (fun p -> Atomic.get p.alive) ps in
    ignore (Atomic.compare_and_set t.participants ps pruned)
  end;
  if !all_clear && Atomic.compare_and_set t.epoch epoch (epoch + 1) then
    (* b = 1 marks a forced advance, i.e. laggards were neutralized. *)
    Trace.emit Trace.Epoch_advance (-1) (epoch + 1) (if force then 1 else 0)
