module Mem = Smr_core.Mem
module Stats = Smr_core.Stats

let name = "RC"
let robust = false
let supports_optimistic = true
let needs_protection = false
let counts_references = true

type t = {
  ebr : Ebr.t;
  stats : Stats.t;
  (* Children closures registered by retire_with_children, looked up when a
     block's count reaches zero so destruction cascades. The mutex is only
     taken on retire/destroy, never on reads. *)
  children_reg : (int, unit -> Mem.header list) Hashtbl.t;
  reg_lock : Mutex.t;
}

type handle = { ebr_h : Ebr.handle; shared : t }
type guard = unit

let create ?(config = Smr.Smr_intf.default_config) () =
  let ebr = Ebr.create ~config () in
  {
    ebr;
    stats = Ebr.stats ebr;
    children_reg = Hashtbl.create 256;
    reg_lock = Mutex.create ();
  }

let stats t = t.stats
let register t = { ebr_h = Ebr.register t.ebr; shared = t }
let unregister h = Ebr.unregister h.ebr_h
let crit_enter h = Ebr.crit_enter h.ebr_h
let crit_exit h = Ebr.crit_exit h.ebr_h
let crit_refresh h = Ebr.crit_refresh h.ebr_h
let guard _ = ()
let protect () _ = ()
let release () = ()
let protection_valid _ = true
let incr_ref = Mem.incr_ref

let take_children t hdr =
  Mutex.lock t.reg_lock;
  let uid = Mem.uid hdr in
  let children =
    match Hashtbl.find_opt t.children_reg uid with
    | Some f ->
        Hashtbl.remove t.children_reg uid;
        f ()
    | None -> []
  in
  Mutex.unlock t.reg_lock;
  children

let register_children t hdr children =
  Mutex.lock t.reg_lock;
  Hashtbl.replace t.children_reg (Mem.uid hdr) children;
  Mutex.unlock t.reg_lock

(* Destroy a block whose last incoming link vanished; cascade into children
   through the registry. Blocks reached only by cascade were never retired
   explicitly, hence [free_mark_cascade], which counts their late retire. *)
let rec destroy t hdr =
  let children = take_children t hdr in
  Mem.free_mark_cascade t.stats hdr;
  List.iter (fun child -> if Mem.decr_ref child then destroy t child) children

let retire_with_children h hdr ~children =
  (* The unlink removed one incoming link: defer the decrement through EBR
     so concurrent snapshot holders finish first. *)
  Mem.retire_mark h.shared.stats hdr;
  register_children h.shared hdr children;
  let t = h.shared in
  Ebr.defer h.ebr_h (fun () ->
      if Mem.decr_ref hdr then destroy t hdr)

let retire h hdr = retire_with_children h hdr ~children:(fun () -> [])

let try_unlink h = Smr.Reclaim.unlink_then_retire retire h

let flush h = Ebr.flush h.ebr_h

(* Asynchrony is inherited from the underlying EBR instance: when
   [config.async_reclaim] is set, deferred decrements hand off through its
   collector. *)
let shutdown t = Ebr.shutdown t.ebr
let collector_stats t = Ebr.collector_stats t.ebr

(* The deferred decrements live in the underlying EBR handle's bag; EBR's
   recovery (mark dead, orphan the bag) is exactly what RC needs. *)
let report_crashed h = Ebr.report_crashed h.ebr_h
