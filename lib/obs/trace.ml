type kind =
  | Alloc
  | Retire
  | Unlink
  | Invalidate
  | Free
  | Protect
  | Unprotect
  | Validation_fail
  | Epoch_advance
  | Reclaim_pass
  | Step
  | Span
  | Crash
  | Handoff
  | Drain
  | Req_recv
  | Req_dispatch
  | Req_reply
  | Req_wire
  | Req_send
  | Req_done

let kind_code = function
  | Alloc -> 0
  | Retire -> 1
  | Unlink -> 2
  | Invalidate -> 3
  | Free -> 4
  | Protect -> 5
  | Unprotect -> 6
  | Validation_fail -> 7
  | Epoch_advance -> 8
  | Reclaim_pass -> 9
  | Step -> 10
  | Span -> 11
  | Crash -> 12
  | Handoff -> 13
  | Drain -> 14
  (* 15 is retired (a removed collector event): the request codes keep
     their values, so raw trace files stay readable across versions *)
  | Req_recv -> 16
  | Req_dispatch -> 17
  | Req_reply -> 18
  | Req_wire -> 19
  | Req_send -> 20
  | Req_done -> 21

let kind_of_code = function
  | 0 -> Alloc
  | 1 -> Retire
  | 2 -> Unlink
  | 3 -> Invalidate
  | 4 -> Free
  | 5 -> Protect
  | 6 -> Unprotect
  | 7 -> Validation_fail
  | 8 -> Epoch_advance
  | 9 -> Reclaim_pass
  | 10 -> Step
  | 11 -> Span
  | 12 -> Crash
  | 13 -> Handoff
  | 14 -> Drain
  | 16 -> Req_recv
  | 17 -> Req_dispatch
  | 18 -> Req_reply
  | 19 -> Req_wire
  | 20 -> Req_send
  | 21 -> Req_done
  | c -> invalid_arg ("Trace.kind_of_code: " ^ string_of_int c)

let kind_name = function
  | Alloc -> "alloc"
  | Retire -> "retire"
  | Unlink -> "unlink"
  | Invalidate -> "invalidate"
  | Free -> "free"
  | Protect -> "protect"
  | Unprotect -> "unprotect"
  | Validation_fail -> "validation_fail"
  | Epoch_advance -> "epoch_advance"
  | Reclaim_pass -> "reclaim_pass"
  | Step -> "step"
  | Span -> "span"
  | Crash -> "crash"
  | Handoff -> "handoff"
  | Drain -> "drain"
  | Req_recv -> "req_recv"
  | Req_dispatch -> "req_dispatch"
  | Req_reply -> "req_reply"
  | Req_wire -> "req_wire"
  | Req_send -> "req_send"
  | Req_done -> "req_done"

type event = {
  seq : int;
  ts : int;
  dom : int;
  kind : kind;
  uid : int;
  a : int;
  b : int;
}

(* Ring slots are [stride] consecutive ints in one flat array: no per-event
   boxes, so an enabled emit writes six ints and moves a cursor. *)
let stride = 8
let f_seq = 0
let f_ts = 1
let f_kind = 2
let f_uid = 3
let f_a = 4
let f_b = 5

type ring = {
  gen : int; (* tracer generation this ring belongs to *)
  dom : int;
  buf : int array;
  cap : int; (* capacity in events *)
  mutable n : int; (* total events ever written; kept = min n cap *)
}

module Hook = Fault.Hook

(* The tracing on/off bit lives in the combined {!Fault.Hook} word, shared
   with the fault layer and the deterministic scheduler, so every
   instrumented site pays one atomic load however many concerns are armed.
   [enabled] answers "should this site prepare and call emit": true when
   recording, and also when the scheduler is installed — emit is a yield
   point, and it must fire on the same sites whether or not the tracer
   records (schedule trails stay comparable across traced and bare runs). *)
(* Module-local binding of the shared word: the guards below are the
   hottest loads in the tree, and reaching the atomic through [Hook.word]'s
   module block measurably slows the disarmed path (see hook.mli). *)
let hook_flags = Hook.flags

let[@inline] enabled () =
  Atomic.get hook_flags land (Hook.trace_bit lor Hook.sched_bit) <> 0

let recording () = Atomic.get hook_flags land Hook.trace_bit <> 0
let seq_counter = Atomic.make 0

(* Bumped by [reset]: rings from an older generation are abandoned where
   they lie (domains still holding one mint a fresh ring on next emit). *)
let generation = Atomic.make 0
let ring_capacity = Atomic.make (1 lsl 15)
let rings : ring list Atomic.t = Atomic.make []

let default_clock () = int_of_float (Unix.gettimeofday () *. 1e9)
let clock = Atomic.make default_clock
let set_clock f = Atomic.set clock f

let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let rec register_ring r =
  let cur = Atomic.get rings in
  if not (Atomic.compare_and_set rings cur (r :: cur)) then register_ring r

let my_ring () =
  let cell = Domain.DLS.get ring_key in
  let gen = Atomic.get generation in
  match !cell with
  | Some r when r.gen = gen -> r
  | _ ->
      let cap = Atomic.get ring_capacity in
      let r =
        {
          gen;
          dom = (Domain.self () :> int);
          buf = Array.make (cap * stride) 0;
          cap;
          n = 0;
        }
      in
      register_ring r;
      cell := Some r;
      r

let emit_enabled ~ts k uid a b =
  let r = my_ring () in
  let seq = Atomic.fetch_and_add seq_counter 1 in
  let i = r.n mod r.cap * stride in
  let buf = r.buf in
  buf.(i + f_seq) <- seq;
  buf.(i + f_ts) <- ts;
  buf.(i + f_kind) <- kind_code k;
  buf.(i + f_uid) <- uid;
  buf.(i + f_a) <- a;
  buf.(i + f_b) <- b;
  r.n <- r.n + 1

(* Slow path, entered only when some hook bit is set: yield to the
   scheduler first (sched bit), then record (trace bit). The two are
   independent so a schedule replay visits identical yield sites with the
   ring on or off. *)
let emit_hooked f ~ts k uid a b =
  if f land Hook.sched_bit <> 0 then
    Hook.yield (Hook.site_trace_base + kind_code k);
  if f land Hook.trace_bit <> 0 then
    emit_enabled ~ts:(if ts >= 0 then ts else (Atomic.get clock) ()) k uid a b

let[@inline] emit k uid a b =
  let f = Atomic.get hook_flags in
  if f <> 0 then emit_hooked f ~ts:(-1) k uid a b

let[@inline] emit_at ~ts k uid a b =
  let f = Atomic.get hook_flags in
  if f <> 0 then emit_hooked f ~ts k uid a b

let reset () =
  Atomic.incr generation;
  Atomic.set rings [];
  Atomic.set seq_counter 0

let enable ?(capacity = 1 lsl 15) () =
  if capacity < 1 then invalid_arg "Trace.enable: capacity";
  reset ();
  Atomic.set ring_capacity capacity;
  Hook.set_bit Hook.trace_bit

let disable () = Hook.clear_bit Hook.trace_bit

type snapshot = { events : event array; dropped : int; complete_from : int }

let ring_event r j =
  (* j-th oldest kept event *)
  let kept = min r.n r.cap in
  let first = r.n - kept in
  let i = (first + j) mod r.cap * stride in
  let buf = r.buf in
  {
    seq = buf.(i + f_seq);
    ts = buf.(i + f_ts);
    dom = r.dom;
    kind = kind_of_code buf.(i + f_kind);
    uid = buf.(i + f_uid);
    a = buf.(i + f_a);
    b = buf.(i + f_b);
  }

let snapshot () =
  let rs = Atomic.get rings in
  let total = List.fold_left (fun acc r -> acc + min r.n r.cap) 0 rs in
  let events = Array.make total { seq = 0; ts = 0; dom = 0; kind = Alloc; uid = 0; a = 0; b = 0 } in
  let pos = ref 0 in
  let dropped = ref 0 in
  let complete_from = ref 0 in
  List.iter
    (fun r ->
      let kept = min r.n r.cap in
      dropped := !dropped + (r.n - kept);
      if r.n > r.cap && kept > 0 then begin
        let oldest_kept = (ring_event r 0).seq in
        if oldest_kept > !complete_from then complete_from := oldest_kept
      end;
      for j = 0 to kept - 1 do
        events.(!pos) <- ring_event r j;
        incr pos
      done)
    rs;
  Array.sort (fun x y -> compare x.seq y.seq) events;
  { events; dropped = !dropped; complete_from = !complete_from }

let write_raw oc snap =
  Printf.fprintf oc "# obs-trace v1 dropped=%d complete_from=%d\n" snap.dropped
    snap.complete_from;
  Array.iter
    (fun e ->
      Printf.fprintf oc "%d %d %d %d %d %d %d\n" e.seq e.ts e.dom
        (kind_code e.kind) e.uid e.a e.b)
    snap.events

let read_raw ic =
  let header = input_line ic in
  let dropped, complete_from =
    try
      Scanf.sscanf header "# obs-trace v1 dropped=%d complete_from=%d"
        (fun d c -> (d, c))
    with _ -> failwith "Trace.read_raw: bad header"
  in
  let events = ref [] in
  (try
     while true do
       let line = input_line ic in
       if line <> "" then
         let e =
           try
             Scanf.sscanf line "%d %d %d %d %d %d %d"
               (fun seq ts dom k uid a b ->
                 { seq; ts; dom; kind = kind_of_code k; uid; a; b })
           with _ -> failwith ("Trace.read_raw: bad line: " ^ line)
         in
         events := e :: !events
     done
   with End_of_file -> ());
  let events = Array.of_list (List.rev !events) in
  Array.sort (fun x y -> compare x.seq y.seq) events;
  { events; dropped; complete_from }
