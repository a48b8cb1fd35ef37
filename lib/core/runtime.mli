(** A real two-plane DSig signer: the background plane runs on its own
    {!Domain} (the paper dedicates one CPU core to it, §8 "DSig
    configuration"), generating and EdDSA-signing key batches while the
    foreground thread signs with zero asymmetric crypto on its critical
    path.

    The planes communicate through a mutex-protected key queue with the
    paper's threshold semantics: the background domain refills whenever
    the queue drops below S and sleeps otherwise; {!sign} blocks only if
    the queue is completely empty (the synchronous-refill situation the
    in-simulation {!Signer} counts as a slow path).

    Announcements are buffered for the embedding application to
    distribute to verifiers ({!drain_announcements}). *)

type t

val create :
  Config.t ->
  id:int ->
  eddsa:Dsig_ed25519.Eddsa.secret_key ->
  seed:int64 ->
  ?options:Options.t ->
  unit ->
  t
(** Spawns the background domain. Call {!shutdown} when done.

    [options] (default {!Options.default}) supplies the telemetry
    bundle and the retention bound for announcement ACK tracking, which
    paces re-announcements by per-destination ACK round trips — see
    {!track_announcement} and DESIGN.md §9.

    When [options] carries a store ({!Options.with_store}), the runtime
    opens a durable {!Dsig_store.Keystate} journal: the background
    domain journals each batch before its keys are queued, the
    foreground thread journals each reservation before building the
    signature, and the batch counter resumes past anything a previous
    incarnation might have used (DESIGN.md §10). {!shutdown} closes the
    journal cleanly. Raises [Failure] if the store cannot be opened or
    belongs to a different {!Config.fingerprint}.

    The telemetry bundle receives the foreground plane's
    [dsig_runtime_signatures_total] / [dsig_runtime_sign_waits_total]
    counters, the reliability counters [dsig_runtime_reannounces_total]
    (pairs returned by {!step}) and [dsig_runtime_acks_total] (ACKs that
    newly settled a destination), the pacing series [dsig_rtt_us] /
    [dsig_rto_us] gauges (latest observation, plus per-destination
    [.._dest_<id>] series) and the [dsig_reannounce_redundant_total]
    counter, [dsig_runtime_sign_us] histogram and
    [dsig_runtime_queue_depth] gauge, and the background domain's
    [dsig_runtime_batch_gen_us] histogram, and probes
    {!batches_generated} as [dsig_runtime_batches_total]. The planes
    write distinct domain-safe cells ({!Dsig_telemetry.Metric}), so the
    background domain never contends with the foreground signer. *)

val sign : t -> string -> string
(** Foreground-plane signing; thread-safe for a single foreground
    caller. Blocks (briefly, after warm-up never) when no key is ready.
    Registers a lifecycle sign event when the bundle's
    {!Dsig_telemetry.Lifecycle} is enabled (one mutable load when not). *)

val sign_ctx : t -> string -> string * Dsig_telemetry.Trace_ctx.t
(** Like {!sign}, additionally returning the signature's trace context
    for transports that propagate it (e.g. [Dsig_tcpnet.Traced]). *)

val queue_depth : t -> int
val batches_generated : t -> int
(** Batches queued by the background domain so far (live, lock-free). *)

val store : t -> Dsig_store.Keystate.t option
(** The durable key-state journal, when created with
    {!Options.with_store}. *)

val store_recovery : t -> Dsig_store.Keystate.report option
(** What recovery found at creation (clean/crash, burned keys, resumed
    batch counter). *)

val drain_announcements : t -> Batch.announcement list
(** Announcements produced since the last drain, oldest first. *)

(** {1 Announcement control plane}

    The runtime implements {!Control_plane.S}. It hands announcements to
    the embedding application ({!drain_announcements}) rather than
    sending them itself, so the reliability loop is split: after
    distributing an announcement, the application registers the
    destinations with {!track_announcement}; inbound {!Batch.ack} /
    {!Batch.request} frames go to {!deliver_ack} / {!deliver_request}
    (or {!Control_plane.deliver}); and a periodic {!step} poll yields
    the [(destination, announcement)] pairs to re-send. All entry points
    are thread-safe. *)

val track_announcement : t -> Batch.announcement -> dests:int list -> unit

val deliver_ack : t -> Batch.ack -> unit
(** Record a verifier's acknowledgement; idempotent. Feeds the
    destination's RTT estimator and the pacing telemetry. *)

val deliver_request : t -> Batch.request -> Batch.announcement option
(** The retained announcement to re-send to the requesting verifier, or
    [None] if the batch is no longer retained or names another signer.
    The caller sends the reply. *)

val note_pressure : t -> verifier:int -> pressure:int -> unit
(** Record the back-pressure byte [verifier] piggybacked on a
    [Batch.Credit] frame; see {!Signer.note_pressure}. Thread-safe. *)

val step : t -> now:float -> (int * Batch.announcement) list
(** Re-announcements due at [now] (in the telemetry clock's time base);
    consuming the list advances each destination's RTO timer. The list
    is bounded by the token bucket. *)

val unacked_announcements : t -> int

val shutdown : t -> unit
(** Stops and joins the background domain, then closes the key-state
    journal (clean-shutdown marker). Idempotent. *)
