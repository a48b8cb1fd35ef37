(** The DSig verifier — Algorithm 2 of the paper.

    The background plane ({!deliver}) receives batch announcements,
    EdDSA-verifies their Merkle roots and caches them (plus, when the
    signer sends full keys, the precomputed public keys for the
    comparison-only fast path of §5.2). The foreground plane ({!verify})
    recovers or reconstructs the public-key digest from the signature,
    folds the inclusion proof to a root, and accepts if that root is
    cached; otherwise it falls back to verifying the embedded EdDSA
    signature on the critical path (slow path — the "incorrect hint"
    case of §8.2), optionally caching the result (§4.4 "speeding up bulk
    verification").

    The verifier is {b domain-safe}: every mutable table (batch cache,
    EdDSA cache, pull-repair pacing, pending ACKs, stats) is guarded by
    its own mutex, metric handles are domain-safe cells, and no lock
    is ever held across a control-plane [send] (which may synchronously
    re-enter the verifier through an in-process loopback). Concurrent
    {!verify} / {!deliver} / {!flush_acks} calls from multiple domains
    are safe; see DESIGN.md §12. *)

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
    replies with a {!Batch.Ack} on every accepted announcement, and the
    foreground {!verify} emits a {!Batch.Request} when it slow-paths on
    a batch it never received (pull repair), paced per (signer, batch)
    by the [options] record's [request_policy] (default: 500 µs base,
    exponential, 8 attempts). Without [control] the verifier behaves
    exactly as before — self-standing, fire-and-forget.

    [options] (default {!Options.default}) supplies the telemetry bundle
    and the pull-repair pacing policy; the other fields are signer-side
    and ignored here. With {!Options.with_loadctl}, the verifier also
    carries a {!Dsig_loadctl.Admission} controller: verify calls are
    classified ([Verify] when the batch root is cached, [Repair]
    otherwise) and admitted against per-class token buckets {e before}
    any crypto runs — a shed signature reports [false] without being
    checked (never a false accept) — and every outbound acknowledgement
    frame becomes a {!Batch.Credit} carrying the controller's pressure
    byte, which signers feed to {!Signer.note_pressure} to pace their
    re-announcements down (DESIGN.md §15). The telemetry bundle probes
    the {!stats} fields as [dsig_verifier_fast_total] / [.._slow_total] /
    [.._rejected_total] / [.._eddsa_cache_hits_total] /
    [.._announcements_total] counters, the slow-path breakdown
    [.._slow_missing_batch_total] (batch never delivered — repairable)
    vs [.._slow_cache_miss_total] (cached but root mismatch/eviction),
    the reliability counters [.._batch_requests_total] /
    [.._acks_total] / [.._ack_frames_total] /
    [.._eddsa_cache_evictions_total], and receives the
    [dsig_verifier_fast_us] / [.._slow_us] / [.._deliver_us] latency
    histograms, the [dsig_verifier_cached_batches] gauge, and — when the
    tracer is enabled — [verify_fast] / [verify_slow] /
    [announce_delivery] spans tagged with the verifier id. *)

val deliver : ?sent_us:float -> t -> Batch.announcement -> bool
(** Process a background announcement; [false] if the signer is unknown
    or the EdDSA root signature is invalid (the announcement is then
    ignored). [sent_us] is the transport's send stamp; when given (and
    the bundle's lifecycle aggregator is enabled) the announce-to-admit
    plane measures from it instead of from delivery start. *)

val deliver_many : t -> Batch.announcement list -> int
(** Catch-up delivery: checks all root signatures with randomized
    Ed25519 batch verification — one batch per worker domain when
    {!Options.with_parallel} supplied a pool, one batch total otherwise
    — falling back to per-announcement checks for any chunk that fails.
    Returns the number accepted. Acknowledgements are coalesced into one
    {!Batch.Acks} frame per signer. *)

val verify : t -> msg:string -> string -> bool
(** [verify t ~msg signature_bytes]. Self-standing: succeeds (slowly)
    even if no announcement was ever delivered.

    When the bundle's {!Dsig_telemetry.Lifecycle} is enabled, every
    accepted verification also closes the signature's lifecycle span
    under the trace id derived from its wire header (one mutable load
    when disabled). *)

val verify_ctx : t -> ctx:Dsig_telemetry.Trace_ctx.t -> msg:string -> string -> bool
(** {!verify} for a signature that arrived with a wire-propagated
    {!Dsig_telemetry.Trace_ctx}: the context's origin and birth stamp
    let the lifecycle span close end-to-end even when the signer lives
    in another process. *)

val verify_many : t -> (string * string) array -> bool array
(** [verify_many t pairs] verifies [(msg, signature_bytes)] pairs and
    returns per-pair verdicts in input order. With
    {!Options.with_parallel}, classification (decode, hashing, proof
    folding, slow-path EdDSA) is sharded over the pool's worker domains
    as contiguous index ranges; accounting, lifecycle joins and
    control-plane sends (pull repair) are folded back onto the calling
    domain. Without a pool this is a plain loop over {!verify}.
    Equivalent to [Array.map] of {!verify} in observable behavior,
    except that repair requests for the same gap may be paced slightly
    differently (they are emitted after the whole batch classifies). *)

val can_verify_fast : t -> string -> bool
(** True if the signature's batch root is already cached (Alg. 2
    lines 34-35) — used by applications to deprioritize
    expensive-to-check messages (DoS mitigation, §6 uBFT). *)

type stats = {
  mutable fast : int;  (** verifications served from the root cache *)
  mutable slow : int;  (** verifications that ran EdDSA inline *)
  mutable eddsa_cache_hits : int;
  mutable rejected : int;
  mutable announcements : int;
  mutable slow_missing_batch : int;
      (** slow-path verifications whose batch was never delivered *)
  mutable slow_cache_miss : int;
      (** slow-path verifications whose batch was cached but whose root
          did not match (eviction or cross-batch splice) *)
  mutable requests_sent : int;  (** pull-repair {!Batch.Request}s emitted *)
  mutable acks_sent : int;  (** individual acknowledgements emitted *)
  mutable ack_frames_sent : int;
      (** control frames ({!Batch.Ack} or {!Batch.Acks}) those
          acknowledgements travelled in — with {!Options.with_ack_delay}
          this grows slower than [acks_sent] *)
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

(** {1 ACK batching}

    With {!Options.with_ack_delay}, accepted announcements enqueue their
    acknowledgements instead of sending them: the verifier holds them
    for at most [min cap_us (srtt_fraction * srtt)] (SRTT estimated from
    the transport's announce send stamps) and the transport's pump calls
    {!flush_acks}, which emits one coalesced {!Batch.Acks} frame per
    signer ([dsig_verifier_ack_frames_total]). Before the first RTT
    estimate, or without the option, ACKs are sent immediately. *)

val flush_acks : ?force:bool -> t -> now:float -> int
(** Send the pending acknowledgement frames if the hold deadline has
    passed (or unconditionally with [force]); returns the number of
    frames emitted. [now] is in the telemetry clock's time base. *)

val pending_ack_count : t -> int
(** Acknowledgements currently held for coalescing. *)

val announce_srtt_us : t -> float option
(** The verifier-side smoothed announce round-trip estimate, if any
    announcement has arrived with a send stamp. *)

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
