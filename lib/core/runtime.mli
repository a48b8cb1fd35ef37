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
    bundle, the optional key-state store and transparency-log sink, the
    keygen pool and the sample hook; the runtime shares the signing
    core with {!Signer} ({!Signer_core}), so each means the same here.

    When [options] carries a store ({!Options.with_store}), the runtime
    opens a durable {!Dsig_store.Keystate} journal: the background
    domain journals each batch before its keys are queued, the
    foreground thread journals each reservation before building the
    signature, and the batch counter resumes past anything a previous
    incarnation might have used (DESIGN.md §10). {!shutdown} closes the
    journal cleanly. Raises [Failure] if the store cannot be opened or
    belongs to a different {!Config.fingerprint}. With
    {!Options.with_translog}, every signature reaches the sink before
    {!sign} returns it.

    The telemetry bundle receives the foreground plane's
    [dsig_runtime_signatures_total] / [dsig_runtime_sign_waits_total]
    counters, [dsig_runtime_sign_us] histogram and
    [dsig_runtime_queue_depth] gauge, the background domain's
    [dsig_runtime_batch_gen_us] histogram, {!batches_generated} as
    [dsig_runtime_batches_total], and the control plane's series under
    the [dsig_runtime] prefix ({!Announce.Plane.create}), among them
    [dsig_runtime_acks_total] and [dsig_runtime_reannounces_total]. *)

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

    The runtime hands announcements to the embedding application
    ({!drain_announcements}) rather than sending them itself, so the
    reliability loop is split: after distributing an announcement, the
    application registers the destinations with {!track_announcement};
    inbound control frames go to {!Control_plane.deliver}, and a
    periodic {!Control_plane.step} poll yields the
    [(destination, announcement)] pairs to re-send. The plane has its
    own lock: no control-plane call takes the key-queue lock {!sign}
    pops under. *)

val control_plane : t -> Announce.Plane.t

val track_announcement : t -> Batch.announcement -> dests:int list -> unit
(** {!Announce.Plane.track}. *)

val unacked_announcements : t -> int
(** Outstanding (batch, destination) pairs still awaiting an ACK. *)

val shutdown : t -> unit
(** Stops and joins the background domain, then closes the key-state
    journal (clean-shutdown marker). Idempotent. *)
