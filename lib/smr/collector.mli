(** Background collector domain with a bounded MPMC bag-handoff ring.

    The asynchronous half of every scheme's reclamation pipeline: mutators
    whose retire bag crosses the handoff grain hand the {e whole
    bag} over — one pointer through a Vyukov-style ring, no per-handoff
    allocation — and take a recycled empty bag back, so the retire hot path
    never pays for a hazard snapshot. The collector dequeues bags in
    batches and runs the scheme-supplied [drain] callback, which takes
    {e one} snapshot (and at most one heavy/epoched fence) per cycle,
    amortized over every bag in the batch.

    Robustness contract: [offer] never blocks. When the ring is full, or
    the collector is stalled ([Fault.Collector] stall keeps it parked while
    the ring fills) or dead (a kill flips it to [Dead]), [offer] returns
    [false] and the mutator {e must} reclaim inline — asynchrony is an
    optimization, never a correctness dependency, and peak garbage stays
    bounded by [ring capacity × bag size] over the inline bound. *)

type 'bag t

val spawn :
  ?capacity:int ->
  ?length:('bag -> int) ->
  drain:('bag array -> int -> int) ->
  dummy:'bag ->
  unit ->
  'bag t
(** Start a collector domain over a ring of [capacity] bags (default 8 —
    queued bags are unreclaimed garbage, so the bound is small on purpose).
    Clamped to at least 2: the cell sequence protocol cannot distinguish
    full from writable in a one-cell ring.

    [length bag] (optional) reports a bag's occupancy; when supplied the
    collector keeps live garbage accounting — arrivals per cycle, frees
    derived from the pending delta, and the garbage-age histogram in
    {!stats}. Called only on the collector domain, on bags it owns.

    [drain scratch n] runs {e only on the collector domain} with the [n]
    dequeued bags in [scratch.(0 .. n-1)]; it must move their contents into
    scheme-private pending state (the bags are recycled to mutators right
    after it returns), reclaim what it can under one snapshot, and return
    the number of blocks still pending. A cycle with [n = 0] is a flush
    retry over that pending state. Exceptions escaping [drain] (including
    an injected {!Fault.Killed}) kill the collector: state becomes dead,
    queued bags are preserved for {!shutdown} to salvage. *)

val offer : 'bag t -> 'bag -> bool
(** Hand a full bag over. [false] — without blocking — when the ring is
    full or the collector is not running; the caller must then reclaim the
    bag inline (the failed attempt is already counted as a fallback). *)

val take_bag : 'bag t -> 'bag option
(** Pop a recycled (drained-empty) bag for reuse after a successful
    {!offer}, avoiding a fresh allocation per handoff. *)

val steal : 'bag t -> 'bag option
(** Dequeue one queued bag for {e inline} amortization: a mutator that is
    about to pay a baseline scan anyway (ring full, collector starved or
    dead) folds queued bags into that same snapshot instead of letting
    them age. The consumer side of the ring is multi-consumer safe (head
    is CASed), so stealing runs concurrently with the collector's own
    drains and with other stealers. Counted in [steals]. *)

val recycle : 'bag t -> 'bag -> unit
(** Return a stolen-and-emptied bag to the pool {!take_bag} draws from. *)

val running : 'bag t -> bool

val late : 'bag t -> bool
(** The collector is behind: at least two bags are already queued in a ring
    that can hold more. A mutator about to hand off a bag to a late
    collector absorbs the queue ({!steal}) and runs the pass inline
    instead, counted as a fallback — the mutator-assist rule every scheme's
    handoff path applies, so a mutator faster than the collector cannot
    outrun it. A two-cell ring is never late: it is full at two bags, and
    the full-ring fallback already bounds it the same way. *)

val dead : 'bag t -> bool

val occupancy : 'bag t -> int
(** Bags currently queued (approximate under concurrency; exact at rest). *)

val capacity : 'bag t -> int

val note_fallback : 'bag t -> unit
(** Count an inline fallback decided outside {!offer} (e.g. the scheme saw
    the collector dead and did not bother constructing a handoff). *)

type counters = {
  handoffs : int;  (** bags successfully enqueued *)
  fallbacks : int;  (** inline reclaims forced by full/stopped collector *)
  drains : int;  (** drain cycles run (including empty flush retries) *)
  drained_bags : int;  (** bags consumed across all cycles *)
  steals : int;  (** queued bags absorbed into mutators' inline scans *)
}

val counters : 'bag t -> counters

type histogram = {
  buckets : (float * int) list;
      (** cumulative count per ascending upper bound; feed straight to
          [Obs.Metrics.histogram ~buckets] *)
  count : int;
  sum : float;
}

type stats = {
  ring_occupancy : int;  (** bags queued right now *)
  ring_capacity : int;
  pending : int;  (** headers in collector-private pending after last cycle *)
  pass_age : int;  (** scan passes the current survivors have seen *)
  ctrs : counters;
  drain_duration : histogram;  (** per-cycle drain wall time, seconds *)
  garbage_age : histogram;
      (** scan passes a block survived before being freed; cohort-
          approximate (frees are split between age-0 arrivals and
          [pass_age]-old survivors per cycle, not stamped per block) and
          only populated when {!spawn} got a [length] hook *)
}

val stats : 'bag t -> stats
(** Live introspection snapshot. Histograms are written only by the
    collector domain and read via per-bucket atomics: any single bucket is
    exact, cross-bucket skew of one in-flight cycle is possible. *)

val shutdown : 'bag t -> recover:('bag -> unit) -> unit
(** Stop and join the collector. A live collector first empties the ring
    and runs three empty flush cycles (epoch schemes advance their grace
    periods); a dead one is just joined. Any bags still queued afterwards
    (only possible after a kill) are handed to [recover] — schemes donate
    them to their orphanage. Idempotent. A stalled collector must be
    {!Fault.release}d first or the join blocks. *)
