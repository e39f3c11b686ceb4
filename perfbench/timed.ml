(* The traced run's view of the SMR layer: a wrapper over any scheme that
   counts and times the calls a data structure (or the service) makes into
   it, from outside lib/. The untraced run never instantiates it.

   Per-domain counters, no shared atomics on the hot path: each domain gets
   one [counters] record on its first [register] (kept in domain-local
   storage and in a registry list taken under a mutex, which only
   registration touches). Handles and guards carry their owner's record, so
   counting a [protect] is one field increment. Cheap calls ([protect],
   [release], [guard], [crit_*]) are counted, not timed: a clock read would
   cost as much as the call. Calls that cost far more than a clock read
   ([retire], [try_unlink] and its two callbacks, [register], [unregister])
   are timed into per-domain histograms. [flush] is passed through: the
   benchmark calls it only at teardown, outside every measured window. Everything stays in
   memory until [snapshot] is taken at quiescence. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type counters = {
  mutable protect : int;
  mutable release : int;
  mutable guard : int;
  mutable crit_enter : int;
  mutable crit_refresh : int;
  mutable try_unlink : int;
  mutable try_unlink_ok : int;
  mutable cb_ns : int; (* running total of callback time, for self time *)
  try_unlink_self : Hist.t; (* try_unlink minus its callbacks *)
  retire : Hist.t;
  register : Hist.t;
  unregister : Hist.t;
  unlink_cas : Hist.t; (* the data structure's [do_unlink] *)
  invalidate : Hist.t; (* the data structure's [invalidate] *)
}

let fresh () =
  {
    protect = 0;
    release = 0;
    guard = 0;
    crit_enter = 0;
    crit_refresh = 0;
    try_unlink = 0;
    try_unlink_ok = 0;
    cb_ns = 0;
    try_unlink_self = Hist.create ();
    retire = Hist.create ();
    register = Hist.create ();
    unregister = Hist.create ();
    unlink_cas = Hist.create ();
    invalidate = Hist.create ();
  }

let lock = Mutex.create ()
let registry : counters list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let c = fresh () in
      Mutex.lock lock;
      registry := c :: !registry;
      Mutex.unlock lock;
      c)

let all () =
  Mutex.lock lock;
  let l = !registry in
  Mutex.unlock lock;
  l

let hists c =
  [
    c.try_unlink_self;
    c.retire;
    c.register;
    c.unregister;
    c.unlink_cas;
    c.invalidate;
  ]

(* Zero every domain's record. Only at quiescence: before a measured window
   starts, with no domain inside the SMR layer. *)
let reset () =
  List.iter
    (fun c ->
      c.protect <- 0;
      c.release <- 0;
      c.guard <- 0;
      c.crit_enter <- 0;
      c.crit_refresh <- 0;
      c.try_unlink <- 0;
      c.try_unlink_ok <- 0;
      c.cb_ns <- 0;
      List.iter Hist.clear (hists c))
    (all ())

let sum cs =
  let s = fresh () in
  List.iter
    (fun c ->
      s.protect <- s.protect + c.protect;
      s.release <- s.release + c.release;
      s.guard <- s.guard + c.guard;
      s.crit_enter <- s.crit_enter + c.crit_enter;
      s.crit_refresh <- s.crit_refresh + c.crit_refresh;
      s.try_unlink <- s.try_unlink + c.try_unlink;
      s.try_unlink_ok <- s.try_unlink_ok + c.try_unlink_ok;
      List.iter2 (fun dst src -> Hist.merge_into ~dst src) (hists s) (hists c))
    cs;
  s

(* The sum of every domain's record. Only at quiescence. *)
let snapshot () = sum (all ())

(* Time [f] into [h], net of the callback time it ran. *)
let[@inline] self_timed c h f =
  let cb0 = c.cb_ns in
  let t0 = now () in
  let r = f () in
  Hist.record h (now () - t0 - (c.cb_ns - cb0));
  r

let[@inline] callback c h f x =
  let t0 = now () in
  let r = f x in
  let dt = now () - t0 in
  Hist.record h dt;
  c.cb_ns <- c.cb_ns + dt;
  r

module Make (S : Smr.Smr_intf.S) :
  Smr.Smr_intf.S with type t = S.t = struct
  let name = S.name
  let robust = S.robust
  let supports_optimistic = S.supports_optimistic
  let needs_protection = S.needs_protection
  let counts_references = S.counts_references

  type t = S.t
  type handle = { h : S.handle; c : counters }
  type guard = { g : S.guard; gc : counters }

  let create = S.create
  let stats = S.stats

  let register t =
    let c = Domain.DLS.get key in
    let t0 = now () in
    let h = S.register t in
    Hist.record c.register (now () - t0);
    { h; c }

  let unregister { h; c } =
    let t0 = now () in
    S.unregister h;
    Hist.record c.unregister (now () - t0)

  let crit_enter { h; c } =
    c.crit_enter <- c.crit_enter + 1;
    S.crit_enter h

  let crit_exit { h; _ } = S.crit_exit h

  let crit_refresh { h; c } =
    c.crit_refresh <- c.crit_refresh + 1;
    S.crit_refresh h

  let guard { h; c } =
    c.guard <- c.guard + 1;
    { g = S.guard h; gc = c }

  let protect { g; gc } hdr =
    gc.protect <- gc.protect + 1;
    S.protect g hdr

  let release { g; gc } =
    gc.release <- gc.release + 1;
    S.release g

  let protection_valid { h; _ } = S.protection_valid h
  let retire { h; c } hdr = self_timed c c.retire (fun () -> S.retire h hdr)

  let retire_with_children { h; c } hdr ~children =
    self_timed c c.retire (fun () -> S.retire_with_children h hdr ~children)

  let incr_ref = S.incr_ref

  let try_unlink { h; c } ~frontier ~do_unlink ~node_header ~invalidate =
    c.try_unlink <- c.try_unlink + 1;
    let ok =
      self_timed c c.try_unlink_self (fun () ->
          S.try_unlink h ~frontier
            ~do_unlink:(callback c c.unlink_cas do_unlink)
            ~node_header
            ~invalidate:(callback c c.invalidate invalidate))
    in
    if ok then c.try_unlink_ok <- c.try_unlink_ok + 1;
    ok

  let flush { h; _ } = S.flush h
  let shutdown = S.shutdown
  let collector_stats = S.collector_stats
  let report_crashed { h; _ } = S.report_crashed h
end
