(** The DSig verifier — Algorithm 2 of the paper.

    The background plane ({!deliver}) receives batch announcements,
    builds the Merkle tree over their leaves, EdDSA-verifies its root and
    caches the tree with that root signature (plus, for merklified HORS
    when the signer sends full keys, the keys and their forests for the
    comparison-only fast path of §5.2). The foreground plane ({!check})
    recovers or reconstructs the public-key digest from the signature and
    takes the fast path when the signature's inclusion proof is the
    cached tree's own proof for that digest and its root signature is
    the cached one: byte comparisons and one leaf hash, no fold. Any
    mismatch, or no cached batch, sends it to the slow path (the
    "incorrect hint" case of §8.2), which folds the proof to a root and
    verifies the embedded EdDSA signature on it inline, optionally
    caching the result (§4.4 "speeding up bulk verification"). A warm
    verifier therefore accepts exactly the signatures a cold one
    accepts; a tampered root signature costs it one inline EdDSA
    verification, which admission control bounds.

    The verifier is {b domain-safe}. The batch cache is an immutable
    view in an [Atomic.t]: {!deliver} and {!purge_signer} publish a
    successor by compare-and-set, and each classification reads one
    snapshot without a lock, so {!check}'s fast path takes no mutex.
    Every other mutable table has its own mutex — [eddsa_mu] the EdDSA
    cache, [ctl_mu] the pull-repair pacing table and its jitter
    source, [stats_mu] the stats — metric handles are domain-safe cells,
    no mutex is taken while another is held, and none is held across a
    control-plane [send] (which may synchronously re-enter the verifier
    through an in-process loopback). Concurrent {!check} / {!deliver}
    calls from multiple domains are safe; see DESIGN.md §12. *)

type t

val create :
  Config.t ->
  id:int ->
  pki:Pki.t ->
  ?control:(Batch.control -> unit) ->
  ?options:Options.t ->
  unit ->
  t
(** [control] is the verifier's background-plane uplink: {!deliver}
    replies at once with a {!Batch.Ack} on every accepted announcement,
    and the foreground {!check} emits a {!Batch.Request} when it
    slow-paths on a batch it never received (pull repair), paced per
    (signer, batch) by a fixed policy (500 µs base, exponential, 8
    attempts). The pacing jitter is seeded by [id], so a run under a
    virtual clock replays exactly. Without [control] the verifier is
    self-standing, fire-and-forget.

    [options] (default {!Options.default}) supplies the telemetry bundle
    and the admission controller; the other fields are signer-side and
    ignored here. With {!Options.with_loadctl}, the verifier also
    carries a {!Dsig_loadctl.Admission} controller: verify calls are
    classified ([Verify] when the batch is cached, [Repair]
    otherwise) and admitted against per-class token buckets {e before}
    any crypto runs — a shed signature comes back [Shed] without being
    checked (never a false accept) — and every outbound acknowledgement
    frame becomes a {!Batch.Credit} carrying the controller's pressure
    byte, which signers feed to {!Control_plane.note_pressure} to pace their
    re-announcements down (DESIGN.md §15). The telemetry bundle probes
    the {!stats} fields as [dsig_verifier_fast_total] / [.._slow_total] /
    [.._verifies_total] (accepted signatures, fast + slow: the
    denominator of a slow-path share) / [.._rejected_total] /
    [.._eddsa_cache_hits_total] / [.._announcements_total] counters, the slow-path breakdown
    [.._slow_missing_batch_total] (batch never delivered — repairable)
    vs [.._slow_cache_miss_total] (cached but proof or root signature
    mismatch),
    the reliability counters [.._batch_requests_total] /
    [.._acks_total] /
    [.._eddsa_cache_evictions_total], and receives the
    [dsig_verifier_fast_us] / [.._slow_us] / [.._deliver_us] latency
    histograms, the [dsig_verifier_cached_batches] gauge (read from the
    batch cache at each snapshot). *)

val deliver : ?sent_us:float -> t -> Batch.announcement -> bool
(** Process a background announcement; [false] if the signer is unknown
    or the EdDSA root signature is invalid (the announcement is then
    ignored). [sent_us] is the transport's send stamp; when given (and
    the bundle's lifecycle aggregator is enabled) the announce-to-admit
    plane measures from it instead of from delivery start. *)

type reject =
  | Malformed  (** the bytes do not decode as a signature of this configuration *)
  | Unknown_signer  (** {!Pki.allowed} refused the signer: unbound or revoked *)
  | Bad_signature  (** a cryptographic mismatch: HBSS, Merkle or EdDSA *)

type verdict =
  | Fast
      (** accepted because its recovered leaf, batch proof and root
          signature equal bytes the background plane already verified
          (Alg. 2 lines 34-35); any mismatch goes to the slow path *)
  | Slow  (** accepted after checking the EdDSA root signature inline *)
  | Rejected of reject
  | Shed  (** turned away by admission control before any crypto: not a forgery *)

val check : ?ctx:Dsig_telemetry.Trace_ctx.t -> t -> msg:string -> string -> verdict
(** [check t ~msg signature_bytes] is the one per-signature path:
    admission, classification, then the accounting of the verdict's path
    ({!stats} field and histogram; [Shed] touches none).
    Self-standing: a genuine signature is accepted, [Slow], even if no
    announcement was ever delivered. When the bundle's
    {!Dsig_telemetry.Lifecycle} is enabled, an accepted signature also
    closes its lifecycle span, under the trace id its wire header
    implies; [ctx], the {!Dsig_telemetry.Trace_ctx} it arrived with,
    lets the span close end-to-end across processes. *)

val accepted : verdict -> bool
(** [Fast] or [Slow]. *)

val verdict_name : verdict -> string
(** ["fast"], ["slow"], ["malformed"], ["unknown signer"], ["bad signature"], ["shed"]. *)

val verify : t -> msg:string -> string -> bool
(** [accepted (check t ~msg signature_bytes)]. *)

val can_verify_fast : t -> string -> bool
(** True if the signature's batch is already cached (Alg. 2
    lines 34-35) — used by applications to deprioritize
    expensive-to-check messages (DoS mitigation, §6 uBFT). *)

type stats = {
  mutable fast : int;  (** verifications served from the batch cache *)
  mutable slow : int;  (** verifications that ran EdDSA inline *)
  mutable eddsa_cache_hits : int;
  mutable rejected : int;
  mutable announcements : int;
  mutable slow_missing_batch : int;
      (** slow-path verifications whose batch was never delivered *)
  mutable slow_cache_miss : int;
      (** slow-path verifications whose batch was cached but whose
          batch proof or root signature did not match it (cross-batch
          splice, or a root signature other than the announced one) *)
  mutable requests_sent : int;  (** pull-repair {!Batch.Request}s emitted *)
  mutable acks_sent : int;  (** acknowledgements emitted, one control frame each *)
  mutable eddsa_cache_evictions : int;
}

val stats : t -> stats
(** Live: the same record on every call, fields advancing in place; the
    registry counters listed under {!create} read it. *)

val cached_batches : t -> signer:int -> int
(** Number of batches currently cached for a signer (tests). *)

val purge_signer : ?from_batch:int64 -> t -> signer:int -> int
(** Revocation enforcement hook: drop the signer's cached batch roots —
    all of them, or only ids [>= from_batch] when the revocation carries
    a batch boundary — and forget any pull-repair pacing state for the
    purged batches, so an announcement admitted before the revocation
    arrived cannot keep serving the fast path. Returns the number of
    batches purged. The {!Pki} gate ({!Pki.allowed}) makes fresh
    announcements and slow-path verifications fail independently; this
    only evicts what was already cached. *)

(** {1 Load control}

    Present only when the verifier was created with
    {!Options.with_loadctl}; see {!Dsig_loadctl.Admission} and
    DESIGN.md §15. *)

val admission : t -> Dsig_loadctl.Admission.t option
(** The attached admission controller, if any — read its {e shed}
    counters and JSON snapshot from here. *)

val observe_sojourn : t -> sojourn_us:float -> unit
(** Feed an externally measured queueing delay (e.g. inbox sojourn in a
    transport or simulator) into the controller's CoDel detector, in
    addition to the verify spans it observes on its own. A no-op
    without a controller. *)

val pressure : t -> int
(** The current back-pressure byte (0..255) outbound ACK frames carry;
    0 without a controller. *)
