module Mem = Smr_core.Mem
module Stats = Smr_core.Stats

let name = "NR"
let robust = false
let supports_optimistic = true
let counts_references = false
let needs_protection = false

type t = Stats.t
type handle = t
type guard = unit

let create ?config:_ () = Stats.create ()
let stats t = t
let register t = t
let unregister _ = ()
let crit_enter _ = ()
let crit_exit _ = ()
let crit_refresh _ = ()
let guard _ = ()
let protect () _ = ()
let release () = ()
let protection_valid _ = true

let retire t hdr = Mem.retire_mark t hdr

let retire_with_children t hdr ~children:_ = retire t hdr
let incr_ref _ = ()

let try_unlink t ~frontier:_ ~do_unlink ~node_header ~invalidate:_ =
  match do_unlink () with
  | None -> false
  | Some nodes ->
      List.iter (fun n -> retire t (node_header n)) nodes;
      true

let flush _ = ()

(* NR never reclaims, so there is no collector to stop. *)
let shutdown _ = ()

(* No collector: NR never reclaims, so there is nothing to introspect. *)
let collector_stats _ = None

(* NR holds no per-handle state and never reclaims: a crashed handle leaves
   nothing to rescue (and leaks nothing beyond what NR already leaks). *)
let report_crashed _ = ()
