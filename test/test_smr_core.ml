(* Unit and property tests for the smr_core substrate. *)

module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Fence = Smr_core.Fence
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Rng = Smr_core.Rng
module Domain_pool = Smr_core.Domain_pool

let test_mem_lifecycle () =
  let stats = Stats.create () in
  let h = Mem.make stats in
  Alcotest.(check bool) "live" true (Mem.is_live h);
  Mem.check_access h;
  Mem.retire_mark stats h;
  Alcotest.(check bool) "retired" true (Mem.is_retired h);
  Mem.check_access h;
  (* retired but protected blocks are accessible *)
  Mem.free_mark stats h;
  Alcotest.(check bool) "freed" true (Mem.is_freed h);
  Alcotest.check_raises "UAF detected" (Mem.Use_after_free (Mem.uid h))
    (fun () -> Mem.check_access h)

let test_mem_double_retire () =
  let stats = Stats.create () in
  let h = Mem.make stats in
  Mem.retire_mark stats h;
  Alcotest.check_raises "double retire" (Mem.Double_retire (Mem.uid h))
    (fun () -> Mem.retire_mark stats h)

let test_mem_invalid_free () =
  let stats = Stats.create () in
  let h = Mem.make stats in
  Alcotest.check_raises "free live" (Mem.Invalid_free (Mem.uid h)) (fun () ->
      Mem.free_mark stats h);
  Mem.retire_mark stats h;
  Mem.free_mark stats h;
  Alcotest.check_raises "double free" (Mem.Invalid_free (Mem.uid h))
    (fun () -> Mem.free_mark stats h)

let test_mem_cascade_free () =
  let stats = Stats.create () in
  let h = Mem.make stats in
  Mem.free_mark_cascade stats h;
  (* live -> freed allowed, counted as a late retire plus a free *)
  Alcotest.(check bool) "freed" true (Mem.is_freed h);
  Alcotest.(check int) "late retire counted" 1 (Stats.retired_total stats);
  Alcotest.(check int) "free counted" 1 (Stats.freed stats);
  Alcotest.check_raises "double cascade free" (Mem.Invalid_free (Mem.uid h))
    (fun () -> Mem.free_mark_cascade stats h);
  (* retired -> freed counts only the free *)
  let r = Mem.make stats in
  Mem.retire_mark stats r;
  Mem.free_mark_cascade stats r;
  Alcotest.(check int) "one retire each" 2 (Stats.retired_total stats);
  Alcotest.(check int) "two frees" 2 (Stats.freed stats);
  Alcotest.(check int) "nothing unreclaimed" 0 (Stats.unreclaimed stats)

let test_mem_discard () =
  let stats = Stats.create () in
  let h = Mem.make stats in
  Mem.discard stats h;
  Alcotest.(check bool) "freed" true (Mem.is_freed h);
  Alcotest.(check int) "freed, never retired" 1 (Stats.freed stats);
  Alcotest.(check int) "no retire" 0 (Stats.retired_total stats);
  Alcotest.(check int) "nothing live" 0 (Stats.live stats);
  Alcotest.check_raises "UAF on a discarded block"
    (Mem.Use_after_free (Mem.uid h)) (fun () -> Mem.check_access h);
  let r = Mem.make stats in
  Mem.retire_mark stats r;
  Alcotest.check_raises "a retired block is not discardable"
    (Mem.Invalid_free (Mem.uid r)) (fun () -> Mem.discard stats r)

let test_mem_phantom_sentinel () =
  (* the phantom bag filler must not collide with the -1 "no node" Step
     sentinel, and must never survive a retire/free path *)
  Alcotest.(check int) "phantom uid" (-2) (Mem.uid Mem.phantom);
  Alcotest.(check int) "pinned to phantom_uid" Mem.phantom_uid
    (Mem.uid Mem.phantom);
  Alcotest.(check bool) "distinct from the no-node sentinel" true
    (Mem.phantom_uid <> -1);
  let stats = Stats.create () in
  let rejects name f =
    match f stats Mem.phantom with
    | () -> Alcotest.failf "%s accepted the phantom header" name
    | exception Invalid_argument _ -> ()
  in
  rejects "retire_mark" Mem.retire_mark;
  rejects "free_mark" Mem.free_mark;
  rejects "free_mark_cascade" Mem.free_mark_cascade;
  rejects "discard" Mem.discard;
  Alcotest.(check bool) "still live afterwards" true (Mem.is_live Mem.phantom)

let test_mem_checking_toggle () =
  let stats = Stats.create () in
  let h = Mem.make stats in
  Mem.retire_mark stats h;
  Mem.free_mark stats h;
  Mem.set_checking false;
  Mem.check_access h;
  (* no raise while disabled *)
  Mem.set_checking true;
  Alcotest.check_raises "re-enabled" (Mem.Use_after_free (Mem.uid h))
    (fun () -> Mem.check_access h)

let test_mem_uid_unique () =
  let stats = Stats.create () in
  let hs = List.init 100 (fun _ -> Mem.make stats) in
  let uids = List.sort_uniq compare (List.map Mem.uid hs) in
  Alcotest.(check int) "unique uids" 100 (List.length uids)

(* --- the one-word header: uid | incoming-link count | state --------------- *)

(* Run [f] on a fresh domain (its uid cursor starts empty) with the global
   uid counter moved to [at], restoring the counter afterwards. *)
let with_uid_counter at f =
  let saved = Mem.uid_counter_value () in
  Fun.protect
    ~finally:(fun () -> Mem.set_uid_counter saved)
    (fun () ->
      Mem.set_uid_counter at;
      Domain.join (Domain.spawn f))

let test_header_uid_round_trip () =
  Alcotest.(check int) "phantom" Mem.phantom_uid (Mem.uid Mem.phantom);
  Alcotest.(check int) "phantom count" 1 (Mem.ref_count Mem.phantom);
  let stats = Stats.create () in
  let base = Mem.max_uid - 1023 in
  let hs = with_uid_counter base (fun () -> Array.init 1024 (fun _ -> Mem.make stats)) in
  Alcotest.(check int) "first of the last block" base (Mem.uid hs.(0));
  let last = hs.(1023) in
  Alcotest.(check int) "the largest packable uid" Mem.max_uid (Mem.uid last);
  (* the count and state bits never bleed into the uid *)
  Mem.incr_ref last;
  Mem.incr_ref last;
  Alcotest.(check int) "count" 3 (Mem.ref_count last);
  Mem.retire_mark stats last;
  Alcotest.(check bool) "drop to 2" false (Mem.decr_ref last);
  Alcotest.(check bool) "drop to 1" false (Mem.decr_ref last);
  Alcotest.(check bool) "last link" true (Mem.decr_ref last);
  Mem.free_mark stats last;
  Alcotest.(check bool) "freed" true (Mem.is_freed last);
  Alcotest.(check int) "uid survives" Mem.max_uid (Mem.uid last);
  Alcotest.check_raises "UAF names the packed uid"
    (Mem.Use_after_free Mem.max_uid) (fun () -> Mem.check_access last);
  Alcotest.check_raises "count cannot go below zero"
    (Invalid_argument "Mem.decr_ref: incoming-link count already zero")
    (fun () -> ignore (Mem.decr_ref last));
  Alcotest.(check int) "count restored after the rejected drop" 0
    (Mem.ref_count last);
  Alcotest.(check int) "uid intact after the rejected drop" Mem.max_uid
    (Mem.uid last)

(* State CASes retry when only the count bits moved: one domain churns the
   counts of a small batch of headers in a tight loop while the other
   retires and then frees each of them, batch after batch. [node] builds a
   block carrying a header, [hdr] views it, and [intact] checks the block's
   other fields after the race: a standalone header, or a list node whose
   header word is embedded next to its link and key. *)
let header_state_races_count ~node ~hdr ~intact () =
  let stats = Stats.create () in
  let batch () = Array.init 8 (fun _ -> node stats) in
  let current = Atomic.make (batch ()) in
  let passes = Atomic.make 0 and stop = Atomic.make false in
  let lost_update = Atomic.make false in
  let churn =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Array.iter
            (fun n ->
              let h = hdr n in
              Mem.incr_ref h;
              match Mem.decr_ref h with
              | false -> ()
              | true | (exception Invalid_argument _) ->
                  Atomic.set lost_update true)
            (Atomic.get current);
          Atomic.incr passes
        done)
  in
  let all = ref [] in
  for _ = 1 to 500 do
    let ns = batch () in
    Atomic.set current ns;
    (* let the churn domain reach this batch before the transitions *)
    let seen = Atomic.get passes in
    while Atomic.get passes < seen + 2 do
      Domain.cpu_relax ()
    done;
    Array.iter (fun n -> Mem.retire_mark stats (hdr n)) ns;
    Array.iter (fun n -> Mem.free_mark stats (hdr n)) ns;
    all := ns :: !all
  done;
  Atomic.set stop true;
  Domain.join churn;
  Alcotest.(check bool) "no count update lost to a state change" false
    (Atomic.get lost_update);
  List.iter
    (Array.iter (fun n ->
         Alcotest.(check bool) "freed" true (Mem.is_freed (hdr n));
         Alcotest.(check int) "count back to 1" 1 (Mem.ref_count (hdr n));
         Alcotest.(check bool) "other fields intact" true (intact n)))
    !all;
  let uids =
    List.concat_map
      (fun ns -> Array.to_list (Array.map (fun n -> Mem.uid (hdr n)) ns))
      !all
  in
  Alcotest.(check int) "uids intact and distinct" (List.length uids)
    (List.length (List.sort_uniq compare uids))

let test_header_state_races_count =
  header_state_races_count ~node:Mem.make ~hdr:Fun.id ~intact:(fun _ -> true)

let test_embedded_header_state_races_count =
  let module L = Smr_ds.Hhslist.Make (Ebr) in
  let node stats =
    {
      L.next = Link.cell Tagged.null;
      hdr = Mem.cell stats;
      key = 7;
      value = 11;
    }
  in
  header_state_races_count ~node ~hdr:Mem.of_node ~intact:(fun n ->
      n.L.key = 7 && n.L.value = 11
      && Tagged.is_null (Link.get (Link.of_node n)))

(* The packed-range check runs once per 1024-uid block: a block that fits
   hands out all its uids, the next block fails loudly. *)
let test_header_uid_range_exhaustion () =
  let stats = Stats.create () in
  let made = ref 0 in
  let outcome =
    with_uid_counter (Mem.max_uid - 1023) (fun () ->
        match
          for _ = 1 to 1025 do
            ignore (Mem.make stats);
            incr made
          done
        with
        | () -> Ok ()
        | exception Failure msg -> Error msg)
  in
  Alcotest.(check int) "the whole last block" 1024 !made;
  (match outcome with
  | Ok () -> Alcotest.fail "a uid past the packed range was handed out"
  | Error _ -> ());
  let straddling =
    with_uid_counter (Mem.max_uid - 1022) (fun () ->
        match Mem.make stats with
        | _ -> false
        | exception Failure _ -> true)
  in
  Alcotest.(check bool) "a block straddling the limit fails at once" true
    straddling

let test_stats_counters () =
  let s = Stats.create () in
  Stats.on_alloc s;
  Stats.on_alloc s;
  Stats.on_alloc s;
  Stats.on_retire s;
  Stats.on_retire s;
  (* Peaks fold in at read time (and at the schemes' reclaim entries), not
     per event: observe the backlog at its maximum before draining it. *)
  Alcotest.(check int) "peak unreclaimed" 2 (Stats.peak_unreclaimed s);
  Stats.on_free s;
  Alcotest.(check int) "allocated" 3 (Stats.allocated s);
  Alcotest.(check int) "live" 2 (Stats.live s);
  Alcotest.(check int) "unreclaimed" 1 (Stats.unreclaimed s);
  Alcotest.(check int) "peak survives drain" 2 (Stats.peak_unreclaimed s);
  Alcotest.(check int) "retired total" 2 (Stats.retired_total s);
  Stats.reset s;
  Alcotest.(check int) "reset" 0 (Stats.allocated s);
  Alcotest.(check int) "reset clears peak" 0 (Stats.peak_unreclaimed s)

let test_stats_discard () =
  let s = Stats.create () in
  Stats.on_alloc s;
  Stats.on_discard s;
  Alcotest.(check int) "live after discard" 0 (Stats.live s);
  Alcotest.(check int) "unreclaimed untouched" 0 (Stats.unreclaimed s)

let test_stats_concurrent_peak () =
  let s = Stats.create () in
  ignore
    (Domain_pool.run ~n:4 (fun _ ->
         for _ = 1 to 1000 do
           Stats.on_retire s
         done));
  Alcotest.(check int) "backlog summed across stripes" 4000
    (Stats.unreclaimed s);
  ignore
    (Domain_pool.run ~n:4 (fun _ ->
         for _ = 1 to 1000 do
           Stats.on_free s
         done));
  Alcotest.(check int) "unreclaimed drains" 0 (Stats.unreclaimed s);
  Alcotest.(check int) "peak survives drain" 4000 (Stats.peak_unreclaimed s);
  Alcotest.(check int) "retired total" 4000 (Stats.retired_total s)

(* The striped-counter contract: concurrent events from many domains sum
   exactly, reset clears every stripe, and peaks are monotone upper bounds
   of every value a reading ever reported. *)
let test_stats_striped_sum () =
  let s = Stats.create () in
  let n = 4 and per = 5000 in
  ignore
    (Domain_pool.run ~n (fun _ ->
         for i = 1 to per do
           Stats.on_alloc s;
           Stats.on_retire s;
           if i mod 2 = 0 then Stats.on_free s;
           if i mod 3 = 0 then Stats.on_heavy_fence s;
           if i mod 7 = 0 then Stats.on_protection_failure s
         done));
  Alcotest.(check int) "allocated sums exactly" (n * per) (Stats.allocated s);
  Alcotest.(check int) "retired sums exactly" (n * per) (Stats.retired_total s);
  Alcotest.(check int) "freed sums exactly" (n * per / 2) (Stats.freed s);
  Alcotest.(check int) "unreclaimed sums exactly" (n * per / 2)
    (Stats.unreclaimed s);
  Alcotest.(check int) "heavy fences sum exactly"
    (n * (per / 3))
    (Stats.heavy_fences s);
  Alcotest.(check int) "protection failures sum exactly"
    (n * (per / 7))
    (Stats.protection_failures s);
  Stats.reset s;
  Alcotest.(check int) "reset allocated" 0 (Stats.allocated s);
  Alcotest.(check int) "reset unreclaimed" 0 (Stats.unreclaimed s);
  Alcotest.(check int) "reset peak unreclaimed" 0 (Stats.peak_unreclaimed s);
  Alcotest.(check int) "reset peak live" 0 (Stats.peak_live s)

let test_stats_peak_upper_bound () =
  let s = Stats.create () in
  let maxes =
    Domain_pool.run ~n:4 (fun _ ->
        let m = ref 0 in
        for i = 1 to 2000 do
          Stats.on_retire s;
          if i mod 16 = 0 then m := max !m (Stats.unreclaimed s);
          if i mod 2 = 0 then Stats.on_free s
        done;
        !m)
  in
  let observed = Array.fold_left max 0 maxes in
  Alcotest.(check bool) "peak bounds every observed reading" true
    (Stats.peak_unreclaimed s >= observed);
  let p1 = Stats.peak_unreclaimed s in
  ignore (Stats.unreclaimed s);
  let p2 = Stats.peak_unreclaimed s in
  Alcotest.(check bool) "peak is monotone" true (p2 >= p1);
  Alcotest.(check bool) "peak bounds the final backlog" true
    (p2 >= Stats.unreclaimed s)

(* Store buffering, the shape of protect vs. reclaim. Each round the
   reader makes a plain store (the hazard slot) then loads a flag (the
   validating link read); the reclaimer sets the flag (the unlink), issues
   [Fence.heavy], then loads the reader's cell (the snapshot). x86-64 lets
   the reader's store sit in its store buffer past its load, so without
   the heavy fence some rounds see both sides miss the other's write; the
   fence must rule that out. Both domains rendezvous before every round so
   the two halves overlap. The run stops at [rounds] or after [budget_s],
   whichever comes first, so a loaded machine only shortens it. *)
type cell = { mutable uid : int }

let test_fence_store_buffering () =
  let rounds = 200_000 and budget_s = 5.0 in
  let stats = Stats.create () in
  let cell = { uid = -1 } in
  let flag = Atomic.make (-1) in
  let ready = [| Atomic.make (-1); Atomic.make (-1) |] in
  (* first round neither side runs; set only by the reader, before it
     announces that round, so both sides complete the same rounds *)
  let stop = Atomic.make max_int in
  let saw_flag = Array.make rounds false and saw_uid = Array.make rounds false in
  let rendezvous me i =
    Atomic.set ready.(me) i;
    while Atomic.get ready.(1 - me) < i && i < Atomic.get stop do
      Domain.cpu_relax ()
    done;
    i < Atomic.get stop
  in
  let deadline = Unix.gettimeofday () +. budget_s in
  let reader () =
    let rec go i =
      if i = rounds then ()
      else if i land 1023 = 0 && Unix.gettimeofday () > deadline then
        Atomic.set stop i
      else if rendezvous 0 i then begin
        cell.uid <- i;
        saw_flag.(i) <- Atomic.get flag >= i;
        go (i + 1)
      end
    in
    go 0
  in
  let reclaimer () =
    let rec go i =
      if i < rounds && rendezvous 1 i then begin
        Atomic.set flag i;
        Fence.heavy stats;
        saw_uid.(i) <- cell.uid >= i;
        go (i + 1)
      end
    in
    go 0
  in
  let d = Domain.spawn reader in
  reclaimer ();
  Domain.join d;
  let n = min rounds (Atomic.get stop) in
  let both_missed = ref 0 in
  for i = 0 to n - 1 do
    if not (saw_flag.(i) || saw_uid.(i)) then incr both_missed
  done;
  Alcotest.(check bool) "ran some rounds" true (n > 0);
  Alcotest.(check int) "fences counted" n (Stats.heavy_fences stats);
  Alcotest.(check int)
    (Printf.sprintf "rounds where both sides missed (of %d)" n)
    0 !both_missed

(* A node stand-in: a record, so a tag-0 block like every real node. *)
type tnode = { tid : int }

let test_tagged_basics () =
  let n = { tid = 42 } in
  let t = Tagged.make ~tag:0 n in
  Alcotest.(check bool) "not deleted" false (Tagged.is_deleted t);
  let d = Tagged.set_bits t Tagged.deleted_bit in
  Alcotest.(check bool) "deleted" true (Tagged.is_deleted d);
  Alcotest.(check bool) "not invalid" false (Tagged.is_invalid d);
  let i = Tagged.set_bits d Tagged.invalid_bit in
  Alcotest.(check bool) "deleted+invalid" true
    (Tagged.is_deleted i && Tagged.is_invalid i);
  Alcotest.(check int) "untag" 0 (Tagged.tag (Tagged.untagged i));
  Alcotest.(check bool) "null" true (Tagged.is_null Tagged.null);
  Alcotest.(check int) "node" 42 (Tagged.node (Tagged.owned t)).tid

(* A clean value is the node block itself: making one, or clearing the tag
   of one, allocates nothing. *)
let test_tagged_clean_is_node () =
  let n = { tid = 1 } in
  Alcotest.(check bool) "make n is n" true
    (Obj.repr (Tagged.make n) == Obj.repr n);
  Alcotest.(check bool) "with_tag _ 0 of a clean value is the node" true
    (Obj.repr (Tagged.with_tag (Tagged.make n) 0) == Obj.repr n);
  let iters = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    let t = Sys.opaque_identity (Tagged.make (Sys.opaque_identity n)) in
    ignore (Sys.opaque_identity (Tagged.untagged t));
    ignore (Sys.opaque_identity (Tagged.with_tag t 0))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for clean make/untagged/with_tag 0"
    0. words

(* A value with tag bits keeps its target and bits through every operation,
   and is a block of its own whose header tag is not a node's. *)
let test_tagged_marked_round_trip () =
  let n = { tid = 7 } in
  for tag = 1 to 7 do
    let t = Tagged.make ~tag n in
    Alcotest.(check bool) "marked: a block of its own, tag <> 0" true
      (Obj.repr t != Obj.repr n && Obj.tag (Obj.repr t) <> 0);
    Alcotest.(check bool) "shape Ptr" true (Tagged.shape t = Tagged.Ptr);
    let node t = Tagged.node (Tagged.owned t) in
    Alcotest.(check bool) "target" true (node t == n);
    Alcotest.(check int) "bits" tag (Tagged.tag t);
    Alcotest.(check int) "set_bits adds" (tag lor 4)
      (Tagged.tag (Tagged.set_bits t 4));
    Alcotest.(check bool) "set_bits keeps the target" true
      (node (Tagged.set_bits t 4) == n);
    Alcotest.(check bool) "untagged is the node again" true
      (Obj.repr (Tagged.untagged t) == Obj.repr n);
    Alcotest.(check bool) "of_option agrees" true
      (Tagged.tag (Tagged.of_option ~tag (Some n)) = tag
      && node (Tagged.of_option ~tag (Some n)) == n)
  done

let test_tagged_same_ptr () =
  let a = ref 1 and b = ref 1 in
  let ta = Tagged.make a in
  let ta' = Tagged.make ~tag:3 a in
  let ta'' = Tagged.make ~tag:Tagged.invalid_bit a in
  let tb = Tagged.make b in
  Alcotest.(check bool) "same target, tags differ" true
    (Tagged.same_ptr ta ta');
  Alcotest.(check bool) "marked, marked" true (Tagged.same_ptr ta'' ta');
  Alcotest.(check bool) "marked, clean" true (Tagged.same_ptr ta' ta);
  Alcotest.(check bool) "equal but distinct refs" false (Tagged.same_ptr ta tb);
  Alcotest.(check bool) "marked, other clean" false (Tagged.same_ptr ta' tb);
  Alcotest.(check bool) "null = null" true
    (Tagged.same_ptr Tagged.null Tagged.null);
  Alcotest.(check bool) "null vs some" false (Tagged.same_ptr Tagged.null ta);
  Alcotest.(check bool) "null vs marked" false
    (Tagged.same_ptr ta' Tagged.null)

let test_tagged_null_invalid () =
  let invalid = Tagged.raw Tagged.invalid in
  Alcotest.(check bool) "null: shape" true
    (Tagged.shape Tagged.null = Tagged.Null);
  Alcotest.(check int) "null: tag" 0 (Tagged.tag Tagged.null);
  Alcotest.(check bool) "null: not invalid" false
    (Tagged.is_invalid Tagged.null);
  Alcotest.(check bool) "invalid: null" true (Tagged.is_null invalid);
  Alcotest.(check bool) "invalid: invalid" true (Tagged.is_invalid invalid);
  Alcotest.(check bool) "invalid: not deleted" false
    (Tagged.is_deleted invalid);
  Alcotest.(check bool) "invalid = null, by target" true
    (Tagged.same_ptr invalid Tagged.null);
  Alcotest.(check bool) "null with bits set is still null" true
    (Tagged.is_null (Tagged.set_bits Tagged.null Tagged.deleted_bit)
    && Tagged.tag (Tagged.set_bits Tagged.null Tagged.deleted_bit) = 1);
  Alcotest.(check bool) "untagged invalid is null" true
    (Tagged.untagged invalid == Tagged.null)

(* Link CAS compares values physically: a clean value is its node, so a
   re-made clean value matches (the paper's word CAS), and a marked value
   matches only the very block read. *)
let test_link_cas_physical () =
  let n1 = ref 1 and n2 = ref 2 in
  let link = Link.make (Tagged.make n1) in
  Alcotest.(check bool) "CAS with a re-made clean value succeeds" true
    (Link.cas link (Tagged.make n1) (Tagged.make ~tag:1 n2));
  Alcotest.(check bool) "CAS with a re-made marked value fails" false
    (Link.cas link (Tagged.make ~tag:1 n2) (Tagged.make n1));
  Alcotest.(check bool) "CAS with the read marked value succeeds" true
    (Link.cas link (Link.get link) (Tagged.make n1))

(* [cas_clean] fails when the link was tagged after it was read, and when
   the value read carried a tag. *)
let test_link_cas_clean () =
  let n1 = ref 1 and n2 = ref 2 in
  let link = Link.make (Tagged.make n1) in
  let read = Link.get link in
  assert (Link.cas link read (Tagged.set_bits read Tagged.deleted_bit));
  Alcotest.(check bool) "link tagged since the read: fails" false
    (Link.cas_clean link read (Tagged.make n2));
  Alcotest.(check bool) "tagged expected value: fails" false
    (Link.cas_clean link (Link.get link) (Tagged.make n2));
  Alcotest.(check bool) "the link kept its tagged value" true
    (Tagged.is_deleted (Link.get link)
    && Tagged.node (Link.get_quiescent link) == n1);
  let clean = Link.make (Tagged.make n1) in
  Alcotest.(check bool) "clean link, clean expected: succeeds" true
    (Link.cas_clean clean (Tagged.make n1) (Tagged.make n2))

let test_link_mark_invalid () =
  let n = ref 0 in
  let link = Link.make (Tagged.make ~tag:Tagged.deleted_bit n) in
  Link.mark_invalid link;
  let v = Link.get link in
  Alcotest.(check bool) "keeps deleted bit" true (Tagged.is_deleted v);
  Alcotest.(check bool) "gains invalid bit" true (Tagged.is_invalid v);
  Alcotest.(check bool) "keeps pointer" true
    ((not (Tagged.is_null v)) && Tagged.node (Link.get_quiescent link) == n)

(* A node with an embedded link, declared the way the lists declare theirs:
   the link is the first field and mutable. *)
type enode = { mutable next : enode Link.cell; id : int }

let enode id = { next = Link.cell Tagged.null; id }

(* Store a young node (a clean value is the node itself), with no other
   root to it, into the link of a node promoted to the major heap: only
   the CAS's write barrier keeps the minor collection from leaving the
   field pointing into the old minor heap. *)
let[@inline never] cas_young link =
  Link.cas link (Link.get link) (Tagged.make (enode 2))

let test_link_embedded_gc () =
  let n = enode 1 in
  Gc.full_major ();
  let link = Link.of_node n in
  Alcotest.(check bool) "embedded link starts null" true
    (Tagged.is_null (Link.get link));
  Alcotest.(check bool) "CAS of a young block succeeds" true (cas_young link);
  (* churn the minor heap so a stale field would read garbage *)
  for i = 1 to 100_000 do
    ignore (Sys.opaque_identity (enode i))
  done;
  let survives what =
    let v = Link.get_quiescent link in
    if Tagged.is_null (Tagged.raw v) || Tagged.tag (Tagged.raw v) <> 0 then
      Alcotest.failf "%s: the link lost its target" what;
    Alcotest.(check int) what 2 (Tagged.node v).id
  in
  Gc.minor ();
  survives "after Gc.minor";
  Gc.full_major ();
  survives "after Gc.full_major";
  Gc.compact ();
  survives "after Gc.compact";
  Alcotest.(check int) "the node's own fields are intact" 1 n.id;
  Alcotest.(check bool) "CAS with a stale expected value fails" false
    (Link.cas link Tagged.null (Tagged.make (enode 3)));
  Alcotest.(check bool) "CAS with a lookalike of the current node fails" false
    (Link.cas link (Tagged.make (enode 2)) Tagged.null);
  survives "after the failed CASes"

(* Each structure whose nodes embed their link. A node built with a known
   tagged value in its [next] field must read that very block through
   [Link.of_node]; a record whose link is not its first field would read
   another field. Then, after inserting 2 and 1 (an enqueue of 1 and 2),
   the node of 1 must read the link its insert stored, to the node of 2,
   and the node of 2 a null link. *)
let key_chain ~what ~key ~head ~succ =
  let node_of tg =
    if Tagged.is_null (Tagged.raw tg) then
      Alcotest.failf "%s: missing node" what
    else Tagged.node tg
  in
  let n1 = node_of head in
  Alcotest.(check int) (what ^ ": first key") 1 (key n1);
  let n2 = node_of (succ n1) in
  Alcotest.(check int) (what ^ ": second key") 2 (key n2);
  Alcotest.(check bool) (what ^ ": tail link null") true
    (Tagged.is_null (Tagged.raw (succ n2)))

let reads_constructed ~what node tg =
  Alcotest.(check bool)
    (what ^ ": of_node reads the constructed link")
    true
    (Link.get (Link.of_node node) == tg)

let test_link_embedded_nodes () =
  let scheme = Ebr.create () in
  let stats = Ebr.stats scheme in
  let h = Ebr.register scheme in
  let succ n = Link.get_quiescent (Link.of_node n) in
  (let module L = Smr_ds.Hhslist.Make (Ebr) in
   let tg = Tagged.of_option ~tag:Tagged.deleted_bit None in
   reads_constructed ~what:"hhslist"
     { L.next = Link.cell tg; hdr = Mem.cell stats; key = 0; value = "" }
     tg;
   let t = L.create scheme and l = L.make_local h in
   assert (L.insert t l 2 "b" && L.insert t l 1 "a");
   key_chain ~what:"hhslist" ~key:(fun n -> n.L.key)
     ~head:(Link.get_quiescent t.L.head) ~succ;
   L.clear_local l);
  (let module L = Smr_ds.Hmlist.Make (Ebr) in
   let tg = Tagged.of_option ~tag:Tagged.deleted_bit None in
   reads_constructed ~what:"hmlist"
     { L.next = Link.cell tg; hdr = Mem.cell stats; key = 0; value = "" }
     tg;
   let t = L.create scheme and l = L.make_local h in
   assert (L.insert t l 2 "b" && L.insert t l 1 "a");
   key_chain ~what:"hmlist" ~key:(fun n -> n.L.key)
     ~head:(Link.get_quiescent t.L.head) ~succ;
   L.clear_local l);
  (let module L = Smr_ds.Lazylist.Make (Ebr) in
   let tg = Tagged.of_option ~tag:Tagged.deleted_bit None in
   reads_constructed ~what:"lazylist"
     {
       L.next = Link.cell tg;
       hdr = Mem.cell stats;
       key = 0;
       value = "";
       marked = Atomic.make false;
       lock = Mutex.create ();
     }
     tg;
   let t = L.create scheme and l = L.make_local h in
   assert (L.insert t l 2 "b" && L.insert t l 1 "a");
   key_chain ~what:"lazylist" ~key:(fun n -> n.L.key)
     ~head:(Link.get_quiescent t.L.head_link) ~succ;
   L.clear_local l);
  (let module Q = Smr_ds.Ms_queue.Make (Ebr) in
   let tg = Tagged.of_option ~tag:Tagged.deleted_bit None in
   reads_constructed ~what:"msqueue"
     { Q.next = Link.cell tg; hdr = Mem.cell stats; value = None }
     tg;
   let t = Q.create scheme and l = Q.make_local h in
   Q.enqueue t l 1;
   Q.enqueue t l 2;
   let dummy =
     let head = Link.get_quiescent t.Q.head in
     if Tagged.is_null (Tagged.raw head) then Alcotest.fail "msqueue: no dummy"
     else Tagged.node head
   in
   key_chain ~what:"msqueue"
     ~key:(fun n -> Option.value n.Q.value ~default:0)
     ~head:(succ dummy) ~succ;
   Q.clear_local l);
  Ebr.unregister h

(* --- the header embedded in every node -------------------------------- *)

(* Each structure's nodes carry their header word in field 1, read through
   [Mem.of_node]. Every structure is built on a fresh domain whose uids
   start at [embedded_base], so every node it allocated has a uid in
   [embedded_base, embedded_base + allocated). For each reachable node,
   [Mem.of_node] must read such a uid, distinct from the others, on a live
   block with the count at 1. The node holding [key] then goes through
   retire and free on that very word: the detector must name its uid, and
   the node's key must be untouched by the CASes. A record whose header is
   not field 1 would read another field as the word and fail here. Every
   node must also be a tag-0 block: a clean tagged link is the node itself,
   told from a mark block by that tag, so a float-only record or a
   constructor-tagged node would break {!Tagged}'s view. *)
let embedded_base = Mem.max_uid - 4095

let check_embedded ~what ~stats ~key_of ~key nodes =
  let allocated = Stats.allocated stats in
  let uids =
    List.map
      (fun n ->
        Alcotest.(check int) (what ^ ": a tag-0 block") 0 (Obj.tag (Obj.repr n));
        let h = Mem.of_node n in
        let uid = Mem.uid h in
        if uid < embedded_base || uid >= embedded_base + allocated then
          Alcotest.failf
            "%s: Mem.of_node reads uid %d, outside the %d the structure \
             allocated from %d"
            what uid allocated embedded_base;
        Alcotest.(check bool) (what ^ ": live") true (Mem.is_live h);
        Alcotest.(check int) (what ^ ": count") 1 (Mem.ref_count h);
        uid)
      nodes
  in
  Alcotest.(check int) (what ^ ": distinct uids") (List.length uids)
    (List.length (List.sort_uniq compare uids));
  let n =
    match List.find_opt (fun n -> key_of n = key) nodes with
    | Some n -> n
    | None -> Alcotest.failf "%s: no node holds key %d" what key
  in
  let h = Mem.of_node n in
  let uid = Mem.uid h in
  Mem.retire_mark stats h;
  Alcotest.(check bool) (what ^ ": retired") true (Mem.is_retired h);
  Mem.check_access h;
  Mem.free_mark stats h;
  Alcotest.check_raises (what ^ ": a freed node trips the detector")
    (Mem.Use_after_free uid) (fun () -> Mem.check_access h);
  Alcotest.(check int) (what ^ ": the key survives the header CASes") key
    (key_of n);
  Alcotest.(check int) (what ^ ": the uid survives the header CASes") uid
    (Mem.uid (Mem.of_node n))

let embedded_in f =
  with_uid_counter embedded_base (fun () ->
      let scheme = Ebr.create () in
      let h = Ebr.register scheme in
      f (Ebr.stats scheme) scheme h;
      Ebr.unregister h)

let rec chain next acc tg =
  match Tagged.shape (Tagged.raw tg) with
  | Tagged.Null -> List.rev acc
  | Tagged.Ptr ->
      let n = Tagged.node tg in
      chain next (n :: acc) (next n)

let rec subtree children n =
  n :: List.concat_map (subtree children) (children n)

let test_embedded_header_nodes () =
  let keys = [ 5; 3; 8 ] in
  embedded_in (fun stats scheme h ->
      let module L = Smr_ds.Hhslist.Make (Ebr) in
      let t = L.create scheme and l = L.make_local h in
      List.iter (fun k -> assert (L.insert t l k k)) keys;
      let next n = Link.get_quiescent (Link.of_node n) in
      check_embedded ~what:"hhslist" ~stats ~key_of:(fun n -> n.L.key) ~key:3
        (chain next [] (Link.get_quiescent t.L.head)));
  embedded_in (fun stats scheme h ->
      let module L = Smr_ds.Hmlist.Make (Ebr) in
      let t = L.create scheme and l = L.make_local h in
      List.iter (fun k -> assert (L.insert t l k k)) keys;
      let next n = Link.get_quiescent (Link.of_node n) in
      check_embedded ~what:"hmlist" ~stats ~key_of:(fun n -> n.L.key) ~key:3
        (chain next [] (Link.get_quiescent t.L.head)));
  embedded_in (fun stats scheme h ->
      let module L = Smr_ds.Lazylist.Make (Ebr) in
      let t = L.create scheme and l = L.make_local h in
      List.iter (fun k -> assert (L.insert t l k k)) keys;
      let next n = Link.get_quiescent (Link.of_node n) in
      check_embedded ~what:"lazylist" ~stats ~key_of:(fun n -> n.L.key) ~key:3
        (chain next [] (Link.get_quiescent t.L.head_link)));
  embedded_in (fun stats scheme h ->
      let module Q = Smr_ds.Ms_queue.Make (Ebr) in
      let t = Q.create scheme and l = Q.make_local h in
      List.iter (Q.enqueue t l) keys;
      let next n = Link.get_quiescent (Link.of_node n) in
      check_embedded ~what:"msqueue" ~stats
        ~key_of:(fun n -> Option.value n.Q.value ~default:0)
        ~key:3
        (chain next [] (Link.get_quiescent t.Q.head)));
  embedded_in (fun stats scheme h ->
      let module T = Smr_ds.Treiber_stack.Make (Ebr) in
      let t = T.create scheme and l = T.make_local h in
      List.iter (T.push t l) keys;
      let next n = Link.get_quiescent (Link.of_node n) in
      check_embedded ~what:"treiber" ~stats ~key_of:(fun n -> n.T.value) ~key:3
        (chain next [] (Link.get_quiescent t.T.top)));
  embedded_in (fun stats scheme h ->
      let module L = Smr_ds.Skiplist.Make (Ebr) in
      let t = L.create scheme and l = L.make_local h in
      List.iter (fun k -> assert (L.insert t l k k)) keys;
      let next n = Link.get_quiescent n.L.next.(0) in
      check_embedded ~what:"skiplist" ~stats ~key_of:(fun n -> n.L.key) ~key:3
        (chain next [] (Link.get_quiescent t.L.head.(0))));
  embedded_in (fun stats scheme h ->
      let module B = Smr_ds.Nmtree.Make (Ebr) in
      let t = B.create scheme and l = B.make_local h in
      List.iter (fun k -> assert (B.insert t l k k)) keys;
      let children n =
        List.filter_map
          (fun link ->
            let c = Link.get_quiescent link in
            if Tagged.is_null (Tagged.raw c) then None
            else Some (Tagged.node c))
          [ n.B.left; n.B.right ]
      in
      check_embedded ~what:"nmtree" ~stats ~key_of:(fun n -> n.B.key) ~key:3
        (subtree children t.B.root));
  embedded_in (fun stats scheme h ->
      let module B = Smr_ds.Efrbtree.Make (Ebr) in
      let t = B.create scheme and l = B.make_local h in
      List.iter (fun k -> assert (B.insert t l k k)) keys;
      let children n =
        List.filter_map
          (fun link ->
            let c = Link.get_quiescent link in
            if Tagged.is_null (Tagged.raw c) then None
            else Some (Tagged.node c))
          [ n.B.left; n.B.right ]
      in
      check_embedded ~what:"efrbtree" ~stats ~key_of:(fun n -> n.B.key) ~key:3
        (subtree children t.B.root));
  embedded_in (fun stats scheme h ->
      let module B = Smr_ds.Bonsai.Make (Ebr) in
      let t = B.create scheme and l = B.make_local h in
      List.iter (fun k -> assert (B.insert t l k k)) keys;
      let children n = List.filter_map Fun.id [ n.B.left; n.B.right ] in
      let root =
        let r = Link.get_quiescent t.B.root in
        if Tagged.is_null (Tagged.raw r) then
          Alcotest.fail "bonsai: empty after inserts"
        else Tagged.node r
      in
      check_embedded ~what:"bonsai" ~stats ~key_of:(fun n -> n.B.key) ~key:3
        (subtree children root))

let test_backoff_caps () =
  let b = Smr_core.Backoff.create ~min_spins:2 ~max_spins:8 () in
  (* growth doubles and saturates at the cap without raising *)
  for _ = 1 to 10 do
    Smr_core.Backoff.once b
  done;
  Smr_core.Backoff.reset b;
  Smr_core.Backoff.once b

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_below_range () =
  let r = Rng.create ~seed:13 in
  for _ = 1 to 10_000 do
    let v = Rng.below r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_barrier_releases_all () =
  let results =
    Domain_pool.run ~n:4 (fun i ->
        (* all four must arrive before any proceeds *)
        i * i)
  in
  Alcotest.(check (array int)) "results in order" [| 0; 1; 4; 9 |] results

let test_pool_propagates_exception () =
  match Domain_pool.run ~n:2 (fun i -> if i = 1 then failwith "boom" else 0) with
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
  | _ -> Alcotest.fail "expected exception"

let test_run_timed_stops () =
  let counts =
    Domain_pool.run_timed ~n:2 ~duration:0.1 (fun _ ~stop ->
        let n = ref 0 in
        while not (stop ()) do
          incr n
        done;
        !n)
  in
  Array.iter (fun c -> Alcotest.(check bool) "did work" true (c > 0)) counts

(* qcheck: the Mem state machine never admits an illegal transition. *)
let prop_mem_state_machine =
  QCheck2.Test.make ~name:"mem state machine rejects illegal transitions"
    ~count:200
    QCheck2.Gen.(list (int_range 0 2))
    (fun script ->
      let stats = Stats.create () in
      let h = Mem.make stats in
      let state = ref `Live in
      List.for_all
        (fun op ->
          match op with
          | 0 -> (
              match (!state, Mem.retire_mark stats h) with
              | `Live, () ->
                  state := `Retired;
                  true
              | _ -> false
              | exception Mem.Double_retire _ -> !state <> `Live)
          | 1 -> (
              match (!state, Mem.free_mark stats h) with
              | `Retired, () ->
                  state := `Freed;
                  true
              | _ -> false
              | exception Mem.Invalid_free _ -> !state <> `Retired)
          | _ -> (
              match Mem.check_access h with
              | () -> !state <> `Freed
              | exception Mem.Use_after_free _ -> !state = `Freed))
        script)

let prop_tagged_bits =
  QCheck2.Test.make ~name:"tag bit algebra" ~count:500
    QCheck2.Gen.(pair (int_range 0 7) bool)
    (fun (tag, with_ptr) ->
      let ptr = if with_ptr then Some (ref 0) else None in
      let t = Tagged.of_option ~tag ptr in
      Tagged.tag (Tagged.untagged t) = 0
      && Tagged.is_deleted (Tagged.set_bits t Tagged.deleted_bit)
      && Tagged.is_invalid (Tagged.set_bits t Tagged.invalid_bit)
      && Tagged.same_ptr t (Tagged.untagged t))

let () =
  Alcotest.run "smr_core"
    [
      ( "mem",
        [
          Alcotest.test_case "lifecycle" `Quick test_mem_lifecycle;
          Alcotest.test_case "double retire" `Quick test_mem_double_retire;
          Alcotest.test_case "invalid free" `Quick test_mem_invalid_free;
          Alcotest.test_case "cascade free" `Quick test_mem_cascade_free;
          Alcotest.test_case "discard" `Quick test_mem_discard;
          Alcotest.test_case "phantom sentinel" `Quick
            test_mem_phantom_sentinel;
          Alcotest.test_case "checking toggle" `Quick test_mem_checking_toggle;
          Alcotest.test_case "uid uniqueness" `Quick test_mem_uid_unique;
          Alcotest.test_case "header uid round trip" `Quick
            test_header_uid_round_trip;
          Alcotest.test_case "header state races count" `Quick
            test_header_state_races_count;
          Alcotest.test_case "embedded header state races count" `Quick
            test_embedded_header_state_races_count;
          Alcotest.test_case "embedded header in every node" `Quick
            test_embedded_header_nodes;
          Alcotest.test_case "header uid range exhaustion" `Quick
            test_header_uid_range_exhaustion;
          QCheck_alcotest.to_alcotest prop_mem_state_machine;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "discard" `Quick test_stats_discard;
          Alcotest.test_case "concurrent peak" `Quick test_stats_concurrent_peak;
          Alcotest.test_case "striped sums" `Quick test_stats_striped_sum;
          Alcotest.test_case "peak upper bound" `Quick
            test_stats_peak_upper_bound;
        ] );
      ( "fence",
        [
          Alcotest.test_case "heavy fence orders store buffering" `Quick
            test_fence_store_buffering;
        ] );
      ( "tagged",
        [
          Alcotest.test_case "basics" `Quick test_tagged_basics;
          Alcotest.test_case "clean make is the node, allocates nothing"
            `Quick test_tagged_clean_is_node;
          Alcotest.test_case "marked values round-trip" `Quick
            test_tagged_marked_round_trip;
          Alcotest.test_case "same_ptr" `Quick test_tagged_same_ptr;
          Alcotest.test_case "null and invalid" `Quick test_tagged_null_invalid;
          QCheck_alcotest.to_alcotest prop_tagged_bits;
        ] );
      ( "link",
        [
          Alcotest.test_case "physical CAS" `Quick test_link_cas_physical;
          Alcotest.test_case "cas_clean fails once tagged" `Quick
            test_link_cas_clean;
          Alcotest.test_case "mark invalid" `Quick test_link_mark_invalid;
          Alcotest.test_case "embedded link survives GC" `Quick
            test_link_embedded_gc;
          Alcotest.test_case "embedded link in every list node" `Quick
            test_link_embedded_nodes;
        ] );
      ( "backoff",
        [ Alcotest.test_case "grows and caps" `Quick test_backoff_caps ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "below range" `Quick test_rng_below_range;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "barrier" `Quick test_barrier_releases_all;
          Alcotest.test_case "exceptions" `Quick test_pool_propagates_exception;
          Alcotest.test_case "run_timed" `Quick test_run_timed_stops;
        ] );
    ]
