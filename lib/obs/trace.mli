(** SMR event tracer: per-domain, single-writer, fixed-capacity rings.

    Every instrumented site calls {!emit}, which is one atomic load and a
    branch when tracing is disabled and allocates nothing either way (events
    live in preallocated flat int arrays). Each domain writes only its own
    ring; a global sequence counter stamps every event, so the merged trace
    is totally ordered and doubles as a protocol-replay log for {!Check}.

    Emission-order discipline (what makes replay checking sound): an event
    announcing that a resource is {e released} (Unprotect) is emitted
    {e before} the releasing store, and an event announcing an {e acquired}
    or {e completed} state (Protect after validation, Invalidate after the
    links are marked, Free after the state CAS) is emitted {e after} the
    operation it describes. Any real free is then separated from the
    protections that guarded against it by a happens-before chain through
    the slot or epoch atomics, so a violation in the merged order is a
    violation of the protocol, not an artifact of emission racing. *)

type kind =
  | Alloc  (** header allocated; [uid] *)
  | Retire  (** classic retirement; [uid] *)
  | Unlink  (** retirement via TryUnlink; [uid], [a] = unlink batch id *)
  | Invalidate  (** node invalidated; [uid], [a] = unlink batch id *)
  | Free
      (** block freed; [uid], [a] = 0 for a retired block, 1 for an RC
          cascade of a live block, 2 for a discard of a never-published
          one *)
  | Protect  (** validated protection established; [uid] *)
  | Unprotect  (** protection about to be withdrawn; [uid] *)
  | Validation_fail
      (** one protection validation step failed; [uid] = target or -1.
          One event per failed step; [Stats.protection_failures] counts the
          operation attempts restarted because of them. *)
  | Epoch_advance  (** [a] = new epoch (EBR/PEBR global, HP++ fence epoch) *)
  | Reclaim_pass  (** reclamation pass entered; [a] = retired-bag length *)
  | Step
      (** traversal step; [uid] = source node (-1 unknown), [a] = target
          node (-1 null), [b] = tag bits read from the source link *)
  | Span  (** timed operation; [a] = op code, [b] = duration ns, [ts] = start *)
  | Crash
      (** a crashed handle was reported dead; [a] = the {e victim}'s domain
          id (the event itself is emitted by the surviving reporter).
          Emitted before the victim's protections are withdrawn, so in
          merged order every Free enabled by the reaping sorts after it. *)
  | Handoff
      (** a mutator handed a full retire bag to the background collector;
          [a] = bag length, [b] = queue occupancy after the enqueue *)
  | Drain
      (** the collector finished one drain cycle; [a] = bags drained,
          [b] = headers still pending after the cycle *)
  | Req_recv
      (** server decoded a whole request frame off a socket; [uid] = frame
          id, [a] = request opcode, [b] = session queue depth after the
          enqueue (or -1 on a RETRY reject) *)
  | Req_dispatch
      (** server popped the frame off the session queue to serve it;
          [uid] = frame id *)
  | Req_reply
      (** server finished the shard op and buffered the reply; [uid] = frame
          id, [a] = response opcode, [b] = serve duration ns *)
  | Req_wire
      (** the last byte of the reply reached the kernel send buffer;
          [uid] = frame id *)
  | Req_send
      (** client wrote the last byte of the request to the kernel;
          [uid] = frame id *)
  | Req_done
      (** client decoded the matching reply; [uid] = frame id,
          [a] = response opcode *)

val kind_code : kind -> int
val kind_of_code : int -> kind
val kind_name : kind -> string

type event = {
  seq : int;  (** global emission order *)
  ts : int;  (** clock at emission (ns with the default clock) *)
  dom : int;  (** emitting domain id *)
  kind : kind;
  uid : int;
  a : int;
  b : int;
}

(** {1 Recording} *)

val enabled : unit -> bool
(** "Should this site prepare arguments and call {!emit}": true when
    recording, and also while the deterministic scheduler ([lib/check]) is
    installed — emit sites double as its yield points, and the yield must
    fire on the same sites whether or not the ring records. One load of the
    combined [Fault.Hook] word. *)

val recording : unit -> bool
(** True iff {!emit} actually writes to the rings (the trace bit alone). *)

val enable : ?capacity:int -> unit -> unit
(** Start recording into fresh rings of [capacity] events per domain
    (default [32768]); previously recorded events are discarded. When a ring
    wraps, the oldest events are overwritten and counted as dropped. *)

val disable : unit -> unit
(** Stop recording. Recorded events stay available to {!snapshot}. *)

val reset : unit -> unit
(** Drop all recorded events and rings. *)

val emit : kind -> int -> int -> int -> unit
(** [emit kind uid a b]: record one event, stamped with the global sequence
    counter and the current clock. No-op (one load, one branch, no
    allocation) when disabled. *)

val emit_at : ts:int -> kind -> int -> int -> int -> unit
(** {!emit} with an explicit timestamp: used for spans, whose [ts] is their
    start time. *)

val set_clock : (unit -> int) -> unit
(** Replace the timestamp source (default: [Unix.gettimeofday] scaled to
    integer nanoseconds). Install a monotonic source for trace timelines. *)

(** {1 Reading back} *)

type snapshot = {
  events : event array;  (** merged across domains, sorted by [seq] *)
  dropped : int;  (** events lost to ring wraparound, all rings *)
  complete_from : int;
      (** the merged stream has no gaps at [seq >= complete_from]: below it
          some ring may have overwritten events. 0 when nothing dropped. *)
}

val snapshot : unit -> snapshot
(** Merge every ring. Only sound at quiescence (no concurrent emitters). *)

val write_raw : out_channel -> snapshot -> unit
(** One-line header plus one [seq ts dom kind uid a b] line per event: the
    checker-artifact format read back by {!read_raw} / [trace_check.exe]. *)

val read_raw : in_channel -> snapshot
(** @raise Failure on a malformed file. *)
