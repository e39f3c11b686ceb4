(** HDR-style latency histogram: power-of-two exponent buckets, each split
    into [2^sub_bits] linear sub-buckets, giving a bounded relative error of
    [2^-(sub_bits-1)] at every magnitude with O(1) recording and a small,
    mergeable footprint.

    Values are non-negative integers (the service records nanoseconds).
    One histogram has a {e single writer}: each worker domain owns its own
    and the collector merges them after the workers quiesce — that is what
    keeps recording lock-free without atomics on the hot path. *)

type t

val create : ?sub_bits:int -> ?max_exp:int -> unit -> t
(** [create ()] covers values in [[0, 2^max_exp)] (default [max_exp = 40]:
    ~18 minutes in nanoseconds) with [2^sub_bits] sub-buckets per octave
    (default [sub_bits = 5]: ≤ 3.2% relative error). Values at or past the
    top are clamped into the final bucket but still tracked exactly by
    {!max_value}. *)

val record : t -> int -> unit
(** Record one value. Negative values clamp to 0. Single-writer. *)

val record_corrected : t -> interval:int -> int -> unit
(** [record_corrected t ~interval v] records [v] and then backfills the
    observations hidden by coordinated omission (HdrHistogram's
    [recordValueWithExpectedInterval]): when [v] exceeds [interval] — the
    expected gap between samples — the stalled sampler {e missed} requests
    that would have seen latencies [v - interval], [v - 2*interval], ...;
    each is recorded too (down to [interval]). With [interval <= 0] this is
    plain {!record}. Corrected tail percentiles are therefore never below
    the uncorrected ones for the same inputs. *)

val count : t -> int
val max_value : t -> int


val mean : t -> float
(** Exact mean of recorded values (tracked as a running sum, not
    reconstructed from buckets). 0 when empty. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [(0, 100]]: an upper bound of the bucket
    holding the [p]-th percentile observation (and never above the true
    maximum). 0 when empty. *)

val merge_into : src:t -> dst:t -> unit
(** Add [src]'s counts into [dst]. Both must share [sub_bits]/[max_exp].
    @raise Invalid_argument otherwise. *)

val merge : t list -> t
(** Fresh histogram holding the sum of all inputs (default parameters when
    the list is empty). *)

val reset : t -> unit

type summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
  max : int;
}

val summary : t -> summary
val pp_summary : unit_name:string -> scale:float -> Format.formatter -> summary -> unit
(** Human-readable one-liner; recorded values are divided by [scale] and
    suffixed with [unit_name] (e.g. [~unit_name:"us" ~scale:1e3] for
    nanosecond recordings). *)
