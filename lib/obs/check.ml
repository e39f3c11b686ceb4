type violation = {
  v_seq : int;
  v_dom : int;
  v_uid : int;
  v_rule : string;
  v_detail : string;
}

type summary = {
  events : int;
  domains : int;
  allocs : int;
  frees : int;
  protects : int;
  steps : int;
  spans : int;
  unlink_batches : int;
  crashes : int;
  below_horizon : int;
}

let pp_violation ppf v =
  Format.fprintf ppf "[%s] seq=%d dom=%d uid=%d: %s" v.v_rule v.v_seq v.v_dom
    v.v_uid v.v_detail

let pp_summary ppf s =
  Format.fprintf ppf
    "%d events over %d domain(s): %d allocs, %d frees, %d validated \
     protections, %d steps, %d spans, %d unlink batches%s%s"
    s.events s.domains s.allocs s.frees s.protects s.steps s.spans
    s.unlink_batches
    (if s.crashes > 0 then Printf.sprintf ", %d crash(es)" s.crashes else "")
    (if s.below_horizon > 0 then
       Printf.sprintf " (%d below the wraparound horizon, state-only)"
         s.below_horizon
     else "")

(* Per-uid replay state. [alloc_seq]/[retire_seq]/[free_seq] are -1 until the
   event is seen. [batch] is the unlink batch key, or None for classic
   retirement. [open_protects] counts validated protections currently open
   on this uid across all domains; [protects_by_dom] keeps the per-domain
   share so an unmatched Unprotect (from an unvalidated protection) cannot
   close another domain's interval. *)
type ustate = {
  mutable alloc_seq : int;
  mutable retire_seq : int;
  mutable free_seq : int;
  mutable batch : (int * int) option; (* (dom, batch id) *)
  mutable invalidate_seq : int;
  mutable invalidate_dom : int;
  mutable open_protects : int;
  mutable protects_by_dom : (int * int) list; (* dom -> open count *)
  mutable last_protect_seq : int;
  mutable last_protect_dom : int;
}

type bstate = {
  mutable members : int list; (* uids retired under this batch *)
  mutable invalidated : int; (* members invalidated so far *)
}

(* The invalid bit of Smr_core.Tagged, restated here so obs stays
   dependency-free; test_obs pins the two together. *)
let tagged_invalid_bit = 2

(* Smr_core.Mem.phantom_uid, likewise restated (and pinned by test_obs).
   The phantom is an array filler for retire bags; no event may ever carry
   its uid — a phantom in a trace means a bag slot leaked into a retire,
   free or protection path. Distinct from -1, the "no node" Step sentinel. *)
let phantom_uid = -2

let run ?(complete_from = 0) (events : Trace.event array) =
  let ustates : (int, ustate) Hashtbl.t = Hashtbl.create 4096 in
  let batches : (int * int, bstate) Hashtbl.t = Hashtbl.create 64 in
  let doms : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let violations = ref [] in
  let allocs = ref 0
  and frees = ref 0
  and protects = ref 0
  and steps = ref 0
  and spans = ref 0
  and crashes = ref 0
  and below = ref 0 in
  let ustate uid =
    match Hashtbl.find_opt ustates uid with
    | Some u -> u
    | None ->
        let u =
          {
            alloc_seq = -1;
            retire_seq = -1;
            free_seq = -1;
            batch = None;
            invalidate_seq = -1;
            invalidate_dom = -1;
            open_protects = 0;
            protects_by_dom = [];
            last_protect_seq = -1;
            last_protect_dom = -1;
          }
        in
        Hashtbl.add ustates uid u;
        u
  in
  let prev_seq = ref (-1) in
  Array.iter
    (fun (e : Trace.event) ->
      if e.seq <= !prev_seq then
        invalid_arg "Check.run: events not strictly ordered by seq";
      prev_seq := e.seq;
      Hashtbl.replace doms e.dom ();
      (* Events below the horizon feed state but never raise: their
         context may have been dropped by ring wraparound. *)
      let checked = e.seq >= complete_from in
      if not checked then incr below;
      let flag rule detail =
        if checked then
          violations :=
            {
              v_seq = e.seq;
              v_dom = e.dom;
              v_uid = e.uid;
              v_rule = rule;
              v_detail = detail;
            }
            :: !violations
      in
      (* A uid is fully observed only when its Alloc lies above the horizon;
         lifecycle rules about *missing* prior events are restricted to
         those, since a dropped prefix could hide the event. *)
      let fully_observed u = u.alloc_seq >= complete_from in
      if e.uid = phantom_uid || (e.kind = Trace.Step && e.a = phantom_uid)
      then
        flag "phantom"
          (Printf.sprintf
             "%s event carries the phantom header uid %d: a retire-bag \
              filler slot leaked into a real SMR path"
             (Trace.kind_name e.kind) phantom_uid);
      match e.kind with
      | Trace.Alloc ->
          incr allocs;
          let u = ustate e.uid in
          if u.alloc_seq >= 0 then
            flag "lifecycle"
              (Printf.sprintf "uid %d allocated twice (first at seq %d)" e.uid
                 u.alloc_seq);
          u.alloc_seq <- e.seq
      | Trace.Retire | Trace.Unlink ->
          let u = ustate e.uid in
          if u.free_seq >= 0 then
            flag "lifecycle"
              (Printf.sprintf "uid %d retired after being freed at seq %d"
                 e.uid u.free_seq);
          (* Unlink annotates the Retire that Mem.retire_mark already
             emitted for the same uid (HP++ TryUnlink emits both), so only a
             repeated Retire counts as a double retirement. *)
          if e.kind = Trace.Retire && u.retire_seq >= 0 && fully_observed u
          then
            flag "lifecycle"
              (Printf.sprintf "uid %d retired twice (first at seq %d)" e.uid
                 u.retire_seq);
          if u.retire_seq < 0 then u.retire_seq <- e.seq;
          if e.kind = Trace.Unlink then begin
            let key = (e.dom, e.a) in
            u.batch <- Some key;
            let b =
              match Hashtbl.find_opt batches key with
              | Some b -> b
              | None ->
                  let b = { members = []; invalidated = 0 } in
                  Hashtbl.add batches key b;
                  b
            in
            b.members <- e.uid :: b.members
          end
      | Trace.Invalidate ->
          let u = ustate e.uid in
          u.invalidate_seq <- e.seq;
          u.invalidate_dom <- e.dom;
          (match Hashtbl.find_opt batches (e.dom, e.a) with
          | Some b -> b.invalidated <- b.invalidated + 1
          | None -> ());
          if u.free_seq >= 0 then
            flag "invalidate-before-free"
              (Printf.sprintf "uid %d invalidated after being freed at seq %d"
                 e.uid u.free_seq)
      | Trace.Free ->
          incr frees;
          let u = ustate e.uid in
          (* a = 1 (cascade of a live block) and a = 2 (discard) free a
             block that never passed through retirement. *)
          let unretired = e.a <> 0 in
          if u.free_seq >= 0 && fully_observed u then
            flag "lifecycle"
              (Printf.sprintf "uid %d freed twice (first at seq %d)" e.uid
                 u.free_seq);
          if u.retire_seq < 0 && (not unretired) && fully_observed u then
            flag "lifecycle"
              (Printf.sprintf "uid %d freed without a preceding retire" e.uid);
          if unretired && u.retire_seq >= 0 then
            flag "lifecycle"
              (Printf.sprintf
                 "uid %d freed as never retired (a = %d) after a retire at \
                  seq %d"
                 e.uid e.a u.retire_seq);
          if u.open_protects > 0 then
            flag "protect-window"
              (Printf.sprintf
                 "uid %d freed while %d validated protection(s) were open \
                  (latest: dom %d at seq %d)"
                 e.uid u.open_protects u.last_protect_dom u.last_protect_seq);
          (match u.batch with
          | Some key when fully_observed u -> (
              match Hashtbl.find_opt batches key with
              | Some b ->
                  let missing =
                    List.filter
                      (fun m ->
                        let mu = ustate m in
                        mu.invalidate_seq < 0 || mu.invalidate_seq > e.seq)
                      b.members
                  in
                  if missing <> [] then
                    flag "invalidate-before-free"
                      (Printf.sprintf
                         "uid %d (unlink batch %d of dom %d) freed before \
                          the whole batch was invalidated; missing: %s"
                         e.uid (snd key) (fst key)
                         (String.concat ","
                            (List.map string_of_int missing)))
              | None -> ())
          | _ -> ());
          u.free_seq <- e.seq
      | Trace.Protect ->
          incr protects;
          let u = ustate e.uid in
          if u.free_seq >= 0 then
            flag "protect-window"
              (Printf.sprintf
                 "uid %d: validated protection established after free at seq \
                  %d"
                 e.uid u.free_seq);
          u.open_protects <- u.open_protects + 1;
          u.last_protect_seq <- e.seq;
          u.last_protect_dom <- e.dom;
          let cur =
            match List.assoc_opt e.dom u.protects_by_dom with
            | Some c -> c
            | None -> 0
          in
          u.protects_by_dom <-
            (e.dom, cur + 1) :: List.remove_assoc e.dom u.protects_by_dom
      | Trace.Unprotect -> (
          let u = ustate e.uid in
          (* Unvalidated protections emit Unprotect with no matching
             Protect: only close an interval this domain actually opened. *)
          match List.assoc_opt e.dom u.protects_by_dom with
          | Some c when c > 0 ->
              u.protects_by_dom <-
                (e.dom, c - 1) :: List.remove_assoc e.dom u.protects_by_dom;
              u.open_protects <- u.open_protects - 1
          | _ -> ())
      | Trace.Step ->
          incr steps;
          if e.b land tagged_invalid_bit <> 0 then
            flag "step-from-invalidated"
              (Printf.sprintf
                 "step from uid %d to uid %d read a link carrying the \
                  invalidation bit (tag %d)"
                 e.uid e.a e.b);
          if e.uid >= 0 then begin
            let u = ustate e.uid in
            if u.free_seq >= 0 then
              flag "step-from-freed"
                (Printf.sprintf "step out of uid %d freed at seq %d" e.uid
                   u.free_seq);
            if u.invalidate_seq >= 0 && u.invalidate_dom = e.dom then
              flag "step-from-invalidated"
                (Printf.sprintf
                   "dom %d stepped out of uid %d which it invalidated itself \
                    at seq %d"
                   e.dom e.uid u.invalidate_seq)
          end
      | Trace.Span -> incr spans
      | Trace.Crash ->
          (* [a] is the victim's domain. Its open protection intervals die
             with it: the reaper withdraws the slots from its own domain,
             which per-domain Unprotect attribution would never match. The
             wipe is instantaneous — a later (reused) domain id opening
             fresh protections is unaffected. *)
          incr crashes;
          Hashtbl.iter
            (fun _ u ->
              match List.assoc_opt e.a u.protects_by_dom with
              | Some c when c > 0 ->
                  u.protects_by_dom <- List.remove_assoc e.a u.protects_by_dom;
                  u.open_protects <- u.open_protects - c
              | _ -> ())
            ustates
      | Trace.Validation_fail | Trace.Epoch_advance | Trace.Reclaim_pass
      (* Collector pipeline events carry batch statistics, not lifecycle
         transitions: the invariants they could violate (free-under-
         protection, invalidate-before-free) are already enforced on the
         Free/Invalidate events the drain cycle itself emits. *)
      | Trace.Handoff | Trace.Drain -> ()
      (* Wire-level request spans are timing markers keyed by frame id, not
         block uids: nothing lifecycle-shaped to check. *)
      | Trace.Req_recv | Trace.Req_dispatch | Trace.Req_reply
      | Trace.Req_wire | Trace.Req_send | Trace.Req_done -> ())
    events;
  match !violations with
  | [] ->
      Ok
        {
          events = Array.length events;
          domains = Hashtbl.length doms;
          allocs = !allocs;
          frees = !frees;
          protects = !protects;
          steps = !steps;
          spans = !spans;
          unlink_batches = Hashtbl.length batches;
          crashes = !crashes;
          below_horizon = !below;
        }
  | vs ->
      let severity = function
        | "phantom" -> 0
        | "protect-window" -> 1
        | "step-from-freed" -> 2
        | "invalidate-before-free" -> 3
        | "step-from-invalidated" -> 4
        | _ -> 5
      in
      Error
        (List.sort
           (fun a b ->
             match compare (severity a.v_rule) (severity b.v_rule) with
             | 0 -> compare a.v_seq b.v_seq
             | c -> c)
           vs)

let run_snapshot (s : Trace.snapshot) =
  run ~complete_from:s.complete_from s.events
