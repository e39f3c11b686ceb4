module Hook = Hook

type point =
  | Retire
  | Protect
  | Unlink
  | Reclaim
  | Crit
  | Net_read
  | Net_write
  | Collector

type action = Kill | Stall

exception Killed of point

let all_points =
  [ Retire; Protect; Unlink; Reclaim; Crit; Net_read; Net_write; Collector ]

let point_name = function
  | Retire -> "retire"
  | Protect -> "protect"
  | Unlink -> "unlink"
  | Reclaim -> "reclaim"
  | Crit -> "crit"
  | Net_read -> "net_read"
  | Net_write -> "net_write"
  | Collector -> "collector"

let action_name = function Kill -> "kill" | Stall -> "stall"

let point_code = function
  | Retire -> 0
  | Protect -> 1
  | Unlink -> 2
  | Reclaim -> 3
  | Crit -> 4
  | Net_read -> 5
  | Net_write -> 6
  | Collector -> 7

type plan = { point : point; action : action; after : int }

(* [armed] carries the plan and its countdown; [Hook.fault_bit] mirrors
   "armed and not yet fired" so the hook guard is one load of one atomic
   (the combined {!Hook} word, shared with tracing and the scheduler). The
   countdown is a fetch_and_add race: exactly one hitter observes the
   transition 1 -> 0 and fires, no matter how many domains hammer the
   point. *)
let armed : (plan * int Atomic.t) option Atomic.t = Atomic.make None
let fired_flag = Atomic.make false
let victim = Atomic.make (-1)
let stall_gate = Atomic.make false (* true while a victim must stay parked *)
let stalled_flag = Atomic.make false

(* Module-local binding of the shared word — same hot-guard discipline as
   Obs.Trace (see hook.mli). *)
let hook_flags = Hook.flags

(* True when a plan is armed OR the deterministic scheduler is installed:
   either way [hit] has work to do at this protocol point, and the guard
   stays one load + branch. *)
let[@inline] enabled () =
  Atomic.get hook_flags land (Hook.fault_bit lor Hook.sched_bit) <> 0

let fired () = Atomic.get fired_flag

let victim_dom () =
  match Atomic.get victim with -1 -> None | d -> Some d

let stalled () = Atomic.get stalled_flag
let release () = Atomic.set stall_gate false

let reset () =
  Hook.clear_bit Hook.fault_bit;
  Atomic.set armed None;
  release ();
  Atomic.set fired_flag false;
  Atomic.set stalled_flag false;
  Atomic.set victim (-1)

let arm ~point ~action ?(after = 1) () =
  if after < 1 then invalid_arg "Fault.arm: after";
  reset ();
  Atomic.set armed (Some ({ point; action; after }, Atomic.make after));
  Hook.set_bit Hook.fault_bit

let fire p =
  match Atomic.get armed with
  | Some (plan, countdown)
    when plan.point = p && Atomic.fetch_and_add countdown (-1) = 1 ->
      Hook.clear_bit Hook.fault_bit;
      Atomic.set victim (Domain.self () :> int);
      Atomic.set fired_flag true;
      (match plan.action with
      | Kill -> raise (Killed p)
      | Stall ->
          Atomic.set stall_gate true;
          Atomic.set stalled_flag true;
          while Atomic.get stall_gate do
            Domain.cpu_relax ()
          done;
          Atomic.set stalled_flag false)
  | _ -> ()

(* The scheduler yield runs BEFORE the plan check: a schedule that parks
   this thread right at the protocol point still sees the armed countdown
   decremented by whoever the scheduler runs through the point first, so
   (schedule, plan) pairs replay deterministically. *)
let hit p =
  let f = Atomic.get hook_flags in
  if f land Hook.sched_bit <> 0 then
    Hook.yield (Hook.site_fault_base + point_code p);
  if f land Hook.fault_bit <> 0 then fire p

let await_stalled () =
  while not (Atomic.get stalled_flag) do
    Domain.cpu_relax ()
  done

(* Private splitmix64 step: this module must sit below smr_core, so it
   cannot borrow Smr_core.Rng. *)
let mix64 x =
  let ( * ) = Int64.mul and ( ^^ ) = Int64.logxor in
  let shr = Int64.shift_right_logical in
  let x = Int64.add (Int64.of_int x) 0x9E3779B97F4A7C15L in
  let x = (x ^^ shr x 30) * 0xBF58476D1CE4E5B9L in
  let x = (x ^^ shr x 27) * 0x94D049BB133111EBL in
  Int64.to_int (x ^^ shr x 31) land max_int

let arm_seeded ~seed ~points ?(actions = [ Kill; Stall ]) () =
  if points = [] then invalid_arg "Fault.arm_seeded: points";
  if actions = [] then invalid_arg "Fault.arm_seeded: actions";
  let point = List.nth points (mix64 seed mod List.length points) in
  let action = List.nth actions (mix64 (seed + 1) mod List.length actions) in
  let after = 1 + (mix64 (seed + 2) mod 400) in
  arm ~point ~action ~after ();
  { point; action; after }
