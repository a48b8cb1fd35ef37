(** The signature-lifecycle aggregator: folds per-signature
    sign → announce-admit → verify observations (joined by
    {!Trace_ctx} ids) into per-plane latency histograms and a ring of
    reconstructed spans.

    Three event sources feed it:
    - [Signer.sign] / [Runtime.sign] report the foreground signing
      duration and register the signature's birth stamp;
    - [Verifier.deliver] reports, once per batch, the announce-to-admit
      latency (keyed by the batch sentinel id, so one admit joins every
      signature of the batch);
    - [Verifier.verify] reports the verification duration and closes the
      span, computing end-to-end latency from the birth stamp it finds
      either locally (same-process signer) or in the wire-propagated
      {!Trace_ctx}.

    The aggregator is {b off by default}: every event
    entry point checks a single mutable [enabled] field and returns
    immediately when disabled, so instrumented hot paths pay one load
    and one branch. When enabled, the per-plane histograms live in the
    owning bundle's {!Registry} under [dsig_lifecycle_sign_us] /
    [dsig_lifecycle_announce_us] / [dsig_lifecycle_verify_us] /
    [dsig_lifecycle_e2e_us], and {!started} / {!completed} are
    published as the probes [dsig_lifecycle_started_total] /
    [dsig_lifecycle_completed_total], so they ride along in every
    snapshot, JSON export and Prometheus scrape.

    Spans are measured on the monotonic clock
    ({!Tracer.mono_clock_us}), but stamps can still go backward when a
    caller plugs a wall clock or a stamp crosses hosts; any negative
    duration is clamped to zero and counted under
    [dsig_lifecycle_negative_clamped_total] rather than silently
    dragging the percentiles down. *)

type t

type plane = Sign | Announce | Verify | End_to_end

val plane_name : plane -> string

type span = {
  sp_trace_id : int64;
  sp_origin : int;
  sp_birth_us : float;
  sp_sign_us : float;  (** nan when only a wire ctx was seen *)
  sp_announce_us : float;  (** nan when the batch admit was not observed *)
  sp_verify_us : float;
  sp_end_us : float;  (** absolute completion stamp *)
  sp_e2e_us : float;
}

val create : ?span_capacity:int -> ?max_pending:int -> registry:Registry.t -> unit -> t
(** [span_capacity] (default 4096) bounds the completed-span ring;
    [max_pending] (default 8192) bounds the open sign-record and
    batch-admit tables, FIFO-evicted. Registry cells are resolved lazily
    on {!enable}, so a bundle that never enables lifecycle tracing
    exports exactly the same snapshot as before this module existed. *)

val enable : t -> unit

val enabled : t -> bool
(** One mutable load — the guard instrumented hot paths use. *)

(** {1 Events} — all no-ops while disabled. *)

val sign : t -> trace_id:int64 -> origin:int -> birth_us:float -> dur_us:float -> unit

val admit : t -> signer:int -> batch_id:int64 -> latency_us:float -> unit
(** First admit of a batch wins; re-deliveries are ignored. *)

val verify :
  t -> trace_id:int64 -> ?origin:int -> ?birth_us:float -> at_us:float -> dur_us:float -> unit -> unit
(** Closes the span. The birth stamp is taken from the local sign record
    when present (same-process signer), else from [birth_us] (a
    wire-propagated {!Trace_ctx}); with neither, only the verify-plane
    histogram is fed. *)

(** {1 Reading} *)

val spans : t -> span list
(** The most recent completed spans, oldest first. *)

val announce_of : t -> signer:int -> batch_id:int64 -> float option
(** Announce-to-admit latency of a batch, if its admit was observed. *)

val started : t -> int
(** Sign events observed. *)

val completed : t -> int
(** Spans closed with a known birth stamp (end-to-end measurable). *)

val full : t -> int
(** Completed spans with all three planes present — the lifecycle
    reconstruction numerator. *)

val percentile : t -> plane -> float -> float
(** Nearest-rank percentile over the plane's histogram (p may be 99.9);
    0.0 before any event. *)

val plane_snapshot : t -> plane -> Metric.Histogram.snapshot

val plane_within : t -> plane -> budget_us:float -> bool
(** Per-plane SLO verdict: at least one observation in the plane's
    histogram and p99 within [budget_us]. A plane with no observations
    fails — "no data" is not "healthy" (the [/health] endpoint relies on
    this). *)

val within : budget_us:float -> t -> bool
(** SLO check: at least one completed span and p99 end-to-end latency
    within [budget_us]. Equivalent to {!plane_within} on [End_to_end]
    plus the completed-span guard. *)
