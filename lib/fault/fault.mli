(** Seeded, deterministic fault injection for SMR protocol points.

    The schemes carry cheap guarded hooks
    ([if Fault.enabled () then Fault.hit P]) at the places where a real
    thread could die or stall mid-protocol: between [Mem.retire_mark] and
    the retire-bag push, while publishing a hazard slot, after a TryUnlink
    succeeded but before its DoInvalidation, in the middle of a reclamation
    pass, and inside an EBR/PEBR critical section. When disarmed (the
    default), every hook is one atomic load and a branch — the same
    discipline as {!Obs.Trace.enabled}.

    The networked service layer ([lib/net]) adds two {e client-side} socket
    points, [Net_read]/[Net_write], hit by the open-loop generator before
    each socket read/write: a [Stall] there models a slow (frozen) client
    deterministically, and a [Kill] models a client dying mid-request with
    its connection dropped on the floor. They are deliberately not hit on
    the server's reactor path — stalling a reactor domain would stall every
    session it serves, which is not the failure mode being modelled.

    An armed plan fires exactly once, on the [after]-th hit of its point,
    in whichever domain gets there first:

    - {e Kill} raises {!Killed} out of the victim's operation. A test or
      driver that catches it must abandon the handle without running
      [unregister] — that is the crash being simulated — and may later hand
      the dead handle to a survivor via the scheme's [report_crashed].
    - {e Stall} parks the victim inside the hook (hazard slots still
      published, critical section still pinned) until {!release}. The
      driver must release before joining the victim's domain.

    This module depends on nothing (it sits below [smr_core]), so plans
    are derived from a seed with a private splitmix64 mixer rather than
    [Smr_core.Rng]. *)

module Hook : module type of Hook
(** The combined trace/fault/sched flags word — see [hook.mli]. Re-exported
    here because this library wraps behind [Fault]. *)

type point =
  | Retire  (** after [Mem.retire_mark], before the retire-bag push *)
  | Protect  (** while publishing a hazard slot ([Slots.set]) *)
  | Unlink  (** TryUnlink succeeded, DoInvalidation not yet run (HP++) *)
  | Reclaim  (** inside a reclamation pass *)
  | Crit  (** inside an EBR/PEBR critical section *)
  | Net_read  (** client socket, before reading responses ([lib/net]) *)
  | Net_write  (** client socket, before sending a request ([lib/net]) *)
  | Collector
      (** top of the background collector's drain cycle ([lib/smr]): a
          [Kill] crashes the collector domain (mutators must fall back to
          inline reclamation), a [Stall] freezes it mid-pipeline with
          handed-off bags pending *)

type action = Kill | Stall

exception Killed of point
(** Raised out of the victim's operation by a [Kill] plan. *)

val all_points : point list
val point_name : point -> string
val action_name : action -> string

val point_code : point -> int
(** Stable small-int code for a point, also its {!Hook} yield-site offset
    ([Hook.site_fault_base + point_code p]). *)

val enabled : unit -> bool
(** True iff the protocol-point hooks have work to do: a plan is armed and
    has not fired, {e or} the deterministic scheduler ([lib/check]) is
    installed and wants a yield at this point. One load of the combined
    {!Hook} word. Hook guard. *)

val hit : point -> unit
(** Count one arrival at [point]: yield to the scheduler if one is
    installed, then fire the armed plan if this is the [after]-th arrival.
    Called only under an {!enabled} guard. *)

type plan = { point : point; action : action; after : int }

val arm : point:point -> action:action -> ?after:int -> unit -> unit
(** Arm one plan ([after] defaults to 1: fire on the first hit). Any
    previously armed plan is replaced. *)

val arm_seeded : seed:int -> points:point list -> ?actions:action list -> unit -> plan
(** Derive a plan deterministically from [seed] (same seed, same plan) over
    the given points (and [actions], default both) and arm it. [after] is
    drawn from [1..400]. Returns the plan so drivers can log it. *)

val fired : unit -> bool
(** The armed plan has gone off. *)

val victim_dom : unit -> int option
(** Domain id that tripped the plan, once {!fired}. *)

val stalled : unit -> bool
(** A [Stall] plan fired and its victim is parked in the hook. *)

val await_stalled : unit -> unit
(** Spin (with [Domain.cpu_relax]) until {!stalled}. Only meaningful when a
    [Stall] plan is armed and some thread is driving its point. *)

val release : unit -> unit
(** Unpark a stalled victim. Idempotent; harmless when nothing stalled. *)

val reset : unit -> unit
(** Disarm, release any stalled victim, clear [fired]/[victim_dom]. *)
