(** The domain driver: one {!Signer} whose background plane runs on its
    own {!Domain} (the paper dedicates one CPU core to it, §8 "DSig
    configuration"), generating and EdDSA-signing key batches while the
    foreground thread signs with zero asymmetric crypto on its critical
    path.

    The runtime owns no queue, lock or rng of its own: the domain loops
    on {!Signer.await_refill} and {!Signer.background_step}, and sleeps
    on the signer's queue lock while every queue holds at least S keys.
    {!sign} is {!Signer.sign}; it waits only if its queue is completely
    empty, on the seal lock of the batch the domain is sealing (the
    wait {!Signer} counts and drivers share). {!signer} reaches hints,
    rotation and {!Signer.sign_many}.

    Announcements are recorded in the signer's outbox for the embedding
    application to distribute to verifiers ({!drain_announcements}). *)

type t

val create :
  Config.t ->
  id:int ->
  eddsa:Dsig_ed25519.Eddsa.secret_key ->
  seed:int64 ->
  ?options:Options.t ->
  unit ->
  t
(** {!start} over [Signer.create ~rng:(Rng.create seed)
    ~prefix:"dsig_runtime" ~verifiers:[]]: one verifier group with no
    destinations, so every announcement lands in the outbox. Call
    {!shutdown} when done.

    [options] (default {!Options.default}) supplies the telemetry
    bundle, the optional key-state store and transparency-log sink, the
    keygen pool and the sample hook, with {!Signer.create}'s meaning.
    With a store, the journal resumes the batch counter past every
    batch id a previous incarnation sealed (DESIGN.md §10), and
    {!shutdown} closes it cleanly; [Failure] if it cannot be opened or
    belongs to a different {!Config.fingerprint}.

    The telemetry bundle receives {!Signer.create}'s series under the
    [dsig_runtime] prefix: among them [dsig_runtime_signatures_total],
    [dsig_runtime_sign_waits_total], [dsig_runtime_batches_total],
    [dsig_runtime_acks_total], [dsig_runtime_reannounces_total], the
    [dsig_runtime_sign_us] and [dsig_runtime_batch_gen_us] histograms
    and the [dsig_runtime_queue_depth] gauge. *)

val start : Signer.t -> t
(** Drive an existing signer's background plane on a new domain. The
    runtime takes the signer over: {!shutdown} closes it. *)

val signer : t -> Signer.t

val sign : t -> string -> string
(** {!Signer.sign} without a hint. Blocks (briefly, after warm-up
    never) when no key is ready. *)

val sign_ctx : t -> string -> string * Dsig_telemetry.Trace_ctx.t
(** {!Signer.sign_ctx} without a hint. *)

val queue_depth : t -> int
(** {!Signer.queue_depth}. *)

val batches_generated : t -> int
(** Batches sealed so far (live, lock-free). *)

val store : t -> Dsig_store.Keystate.t option
val store_recovery : t -> Dsig_store.Keystate.report option
(** {!Signer.store}, {!Signer.store_recovery}. *)

val drain_announcements : t -> Batch.announcement list
(** The outbox's announcements since the last drain, oldest first
    ({!Signer.drain_announcements} without destinations). *)

(** {1 Announcement control plane}

    The runtime hands announcements to the embedding application
    ({!drain_announcements}) rather than sending them itself, so the
    reliability loop is split: after distributing an announcement, the
    application registers the destinations with {!track_announcement};
    inbound control frames go to {!Control_plane.deliver}, and a
    periodic {!Control_plane.step} poll yields the
    [(destination, announcement)] pairs to re-send. The plane has its
    own lock: no control-plane call takes the signer's queue or seal
    lock. *)

val control_plane : t -> Announce.Plane.t

val track_announcement : t -> Batch.announcement -> dests:int list -> unit
(** {!Announce.Plane.track}. *)

val unacked_announcements : t -> int
(** Outstanding (batch, destination) pairs still awaiting an ACK. *)

val shutdown : t -> unit
(** Stops and joins the driver domain, then closes the key-state
    journal (clean-shutdown marker). Idempotent. Signing afterwards
    still works, refilling inline. *)
