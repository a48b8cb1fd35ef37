(** Telemetry primitives: monotonic counters, gauges, and constant-memory
    log2-bucketed latency histograms.

    Every cell is domain-safe on its own, so any domain may update or
    read any cell: a counter is an [int Atomic.t], a gauge an atomic
    float (adds are never lost), and a histogram guards its buckets with
    a mutex that {!Histogram.snapshot} takes too. Distinct cells share
    nothing, so planes writing distinct metrics never contend. *)

module Counter : sig
  type t

  val create : unit -> t

  val incr : ?by:int -> t -> unit
  (** [incr t] adds [by] (default 1). Negative increments are clamped to
      0: counters are monotonic. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  (** A log2-bucketed histogram: 64 fixed buckets whose upper bounds are
      successive powers of two, from [2^min_exp] up, with a final
      overflow bucket. Memory is constant — no per-sample retention —
      so [add] is O(1) and a snapshot is O(buckets), unlike
      [Dsig_simnet.Stats] which keeps every sample.

      Quantile queries use the {e nearest-rank} convention (the same one
      [Dsig_simnet.Stats.percentile] uses on raw samples): the p-th
      percentile of n samples is the value at rank [ceil (p/100 * n)]
      (1-based, clamped to [1, n]). Here the returned value is the
      {e upper bound} of the bucket containing that rank, clamped to the
      observed [max] — exact to within one octave (a factor of 2). *)

  type t

  val num_buckets : int
  (** 64: buckets 0..62 bounded, bucket 63 is the +Inf overflow. *)

  val min_exp : int
  (** -16: bucket 0 holds every value <= 2^-16 (including <= 0). *)

  val create : unit -> t

  val add : t -> float -> unit
  (** O(1): one [frexp], then — under the histogram's mutex — one array
      increment and the running sum/min/max.
      [-inf] lands in bucket 0, [+inf] in the overflow bucket, and nan
      is ignored entirely. *)

  val count : t -> int
  val sum : t -> float

  val bucket_index : float -> int
  (** [bucket_index v] is the index of the bucket that [add] would
      count [v] into: the smallest [i] with [v <= 2^(min_exp + i)],
      clamped to [0, num_buckets - 1]. *)

  val bucket_upper_bound : int -> float
  (** [2^(min_exp + i)] for [i < num_buckets - 1], [infinity] for the
      overflow bucket. *)

  (** {1 Snapshots} *)

  type snapshot = {
    counts : int array;  (** per-bucket counts, length {!num_buckets} *)
    n : int;
    total : float;  (** sum of all added values *)
    vmin : float;  (** [infinity] when empty *)
    vmax : float;  (** [neg_infinity] when empty *)
  }

  val snapshot : t -> snapshot

  val empty : snapshot
  (** Identity for {!merge}. *)

  val merge : snapshot -> snapshot -> snapshot
  (** Pointwise sum of counts and totals, min of mins, max of maxes.
      Associative and commutative with {!empty} as identity. *)

  val percentile : snapshot -> float -> float
  (** [percentile s p] for [p] in [0, 100], nearest-rank over buckets as
      described above. Returns [0.0] when the snapshot is empty (a
      histogram has no recorder name to blame; use
      [Dsig_simnet.Stats.percentile] when an exception on empty input is
      wanted). *)

  val mean : snapshot -> float
  (** [total /. n], [0.0] when empty. *)
end
