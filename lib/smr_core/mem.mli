(** Simulated manual heap.

    OCaml's GC makes literal use-after-free impossible, so this module gives
    every managed block an explicit lifecycle that reclamation schemes drive
    exactly as they would drive [malloc]/[free]:

    {v Live --retire--> Retired --free--> Freed v}

    (plus [Live --discard--> Freed] for a block that was never published).
    A block is a data-structure node, and its {!header} is a word the
    node holds itself (see {!of_node}). Schemes mark
    headers, and each mark both emits its trace event and bumps its
    {!Stats} counter, so the two cannot disagree. Data structures call
    {!check_access} on every dereference, which
    turns what would be undefined behaviour in C into a deterministic
    {!Use_after_free} exception. Lifecycle violations by a scheme itself
    (double retire, double free, freeing a live block) are also detected. *)

exception Use_after_free of int (** uid of the freed block that was accessed *)

exception Double_retire of int
exception Invalid_free of int

type header
(** A block whose field 1 is the header word: the uid in the high bits
    (arithmetic shift, so negative uids survive), RC's incoming-link count
    in the next 20 bits and the 2-bit lifecycle state in the low bits.
    Every node embeds that word ({!of_node}), so a header is the node
    itself and a dereference check loads field 1 of the node it is about
    to read: no block in between. Reads are plain loads; every state or
    count change is a CAS on the word. *)

type cell
(** The type of an embedded header field. It is abstract: the field is
    read and written only through {!of_node}. *)

val cell : Stats.t -> cell
(** The header word of a fresh block, for the node's record literal:
    [{ ...; hdr = Mem.cell stats; ... }]. Counted as an allocation in
    [stats] and traced. Uids are drawn from per-domain blocks of 1024 off
    one global counter, so allocation does not contend; uids are unique but
    not globally ordered.
    @raise Failure when the next block would leave the packed uid range
    (checked once per block). *)

val of_node : 'a -> header
(** [of_node n] is the header embedded in [n], for a record type whose
    field 1 (its second declared field) is [mutable hdr : cell]. The result
    aliases [n]: no allocation, no copy, and [of_node n == of_node n].
    Passing any other value is undefined behaviour. *)

val make : Stats.t -> header
(** A standalone header: a block of its own with the same two-field layout
    as a node (field 0 unused), for headers no node carries — tests, and
    benchmarks of a scheme alone. Counted and traced as {!cell}. *)

val max_uid : int
(** Largest uid the header word can hold. *)

val set_uid_counter : int -> unit
(** Move the global uid counter (tests of the packed-range limit only; run
    them on a fresh domain so no other domain's cached block is affected). *)

val uid_counter_value : unit -> int

val phantom_uid : int
(** The phantom's uid, [-2]. Distinct from [-1], the "no node" sentinel of
    Step trace events ([Ds_common.uid_of_hdr]), so a phantom leaking into a
    trace cannot masquerade as "stepped from the list head". *)

val phantom : header
(** A shared placeholder header (uid {!phantom_uid}) used as array filler by
    retire batches. Never retire, free or access it: the retire/free paths
    raise [Invalid_argument] if it reaches them, and the trace-replay
    checker rejects any event carrying its uid. *)

val uid : header -> int
(** Unique id, for hash-set membership during hazard scans. *)

val incr_ref : header -> unit
(** Count one more incoming link. The count starts at 1 (the link about to
    be created); only the reference-counting scheme moves it.
    @raise Failure if the count field would overflow. *)

val decr_ref : header -> bool
(** Drop one incoming link; [true] when that was the last one.
    @raise Invalid_argument if the count is already zero. *)

val ref_count : header -> int

val is_live : header -> bool
val is_retired : header -> bool
val is_freed : header -> bool

val retire_mark : Stats.t -> header -> unit
(** Transition [Live -> Retired], counted as a retire in [stats].
    @raise Double_retire otherwise. State changes are CAS loops that retry
    when only the count bits moved. *)

val free_mark : Stats.t -> header -> unit
(** Transition [Retired -> Freed], counted as a free in [stats].
    @raise Invalid_free otherwise. *)

val free_mark_cascade : Stats.t -> header -> unit
(** Transition [Live|Retired -> Freed]: reference-counting cascades destroy
    blocks that were never explicitly retired. A [Live] block is counted as
    retired and freed (a late retire) and traced as [Free] with [a = 1]; a
    [Retired] one as a plain free. @raise Invalid_free on double free. *)

val discard : Stats.t -> header -> unit
(** Transition [Live -> Freed] for a block that was allocated and never
    published (e.g. the node of an insert that lost to a duplicate key):
    counted as a discard, traced as [Free] with [a = 2]. Any later
    dereference trips {!check_access}. @raise Invalid_free otherwise. *)

val check_access : header -> unit
(** @raise Use_after_free if the block is freed and checking is enabled.
    Accessing [Live] or [Retired] blocks is legal (a retired block may still
    be protected by a hazard pointer). *)

val set_checking : bool -> unit
(** Globally enable/disable {!check_access} (default: enabled). Disabling is
    only intended for benchmark runs that want the detector's cost out of the
    way; tests always run with it on. *)

val checking : unit -> bool
