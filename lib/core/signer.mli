(** The DSig signer — Algorithm 1 of the paper.

    The signer is configured with {e verifier groups}: sets of processes
    likely to verify the same signatures. Each group has a queue of
    prepared one-time keys; the {e background plane}
    ({!background_step}) refills queues below the threshold S by
    generating an EdDSA-signed batch of keys and multicasting its
    announcement to the group, while the {e foreground plane} ({!sign})
    pops a prepared key, produces the HBSS signature and attaches the
    precomputed Merkle proof and root signature — no EdDSA work on the
    critical path.

    The background plane is driven explicitly (by a dedicated simnet
    process, a loop thread, or interleaved calls), keeping the library
    free of any runtime dependency. *)

type t

val create :
  Config.t ->
  id:int ->
  eddsa:Dsig_ed25519.Eddsa.secret_key ->
  rng:Dsig_util.Rng.t ->
  ?send:(dest:int -> Batch.announcement -> unit) ->
  ?groups:int list list ->
  ?options:Options.t ->
  verifiers:int list ->
  unit ->
  t
(** [verifiers] is the set of all known processes (the default group).
    [groups] adds application-specific verifier groups (Alg. 1 line 2).
    [send] delivers background announcements (batch refills and staged
    rotations); it defaults to a no-op (useful when announcements are
    collected via {!drain_outbox}). The control plane
    ({!Control_plane}) never sends — it returns what to send.

    [options] (default {!Options.default}) supplies the telemetry
    bundle, the optional key-state store, transparency-log sink, worker
    pool and sample hook. Re-announcements are paced by per-destination
    ACK round trips (see {!Announce} and DESIGN.md §9).

    When [options] carries a store ({!Options.with_store}), the signer
    opens a durable {!Dsig_store.Keystate} journal under the store
    directory: every batch is journaled when sealed and every one-time
    key when reserved — {e before} the signature is built — and the
    batch counter resumes past anything a previous incarnation might
    have used, so a restart can never reuse a one-time key (DESIGN.md
    §10). The journal is checked against {!Config.fingerprint}; a store
    that cannot be opened or belongs to a different configuration
    raises [Failure].

    The telemetry bundle probes the {!stats} counts as
    [dsig_signer_signatures_total] / [dsig_signer_sync_refills_total] /
    [dsig_signer_batches_total] / [dsig_signer_reannounces_total] /
    [dsig_signer_batch_requests_total] counters, and receives the
    control plane's series under the [dsig_signer] prefix
    ({!Announce.Plane.create}: [dsig_signer_acks_total] /
    [dsig_signer_announce_giveups_total] /
    [dsig_reannounce_redundant_total], the
    [dsig_signer_unacked_announcements] and [dsig_signer_peer_pressure]
    gauges and the pacing gauges [dsig_rtt_us] / [dsig_rto_us]),
    [dsig_signer_sign_us] and [dsig_signer_refill_us] latency
    histograms, the process-wide [dsig_signer_queue_depth] gauge
    (prepared keys across all groups and signers sharing the handle),
    the key-lifecycle series ([dsig_rotation_staged_total] /
    [dsig_rotation_cutovers_total] / [dsig_rotation_dropped_keys_total]
    counters, the [dsig_rotation_cutover_us] histogram and the
    [dsig_rotation_epoch] gauge), and — when the tracer is enabled —
    [sign_fast] / [sign_sync_refill] / [batch_gen] / [eddsa_sign] /
    [reannounce] spans tagged with the signer id. *)

val id : t -> int
val config : t -> Config.t
val eddsa_public_key : t -> Dsig_ed25519.Eddsa.public_key

val store : t -> Dsig_store.Keystate.t option
(** The durable key-state journal, when the signer was created with
    {!Options.with_store}. *)

val store_recovery : t -> Dsig_store.Keystate.report option
(** What recovery found when the store was opened: whether the previous
    incarnation shut down cleanly, what was burned, and the resumed
    batch counter. *)

val close : t -> unit
(** Write the store's clean-shutdown marker and close it (no burned keys
    on the next open). A no-op without a store; idempotent. *)

val sign : t -> ?hint:int list -> string -> string
(** [sign t ~hint msg] returns the encoded DSig signature. The hint
    selects the smallest group containing it (Alg. 1 line 15); an
    omitted or unmatched hint falls back to the default group. If the
    chosen queue is empty the signer refills it synchronously (slow
    path, counted in {!stats}).

    When the bundle's {!Dsig_telemetry.Lifecycle} is enabled, every
    signature also registers a lifecycle sign event under its trace id
    (one mutable load when disabled). *)

val sign_ctx : t -> ?hint:int list -> string -> string * Dsig_telemetry.Trace_ctx.t
(** Like {!sign}, additionally returning the signature's trace context
    (for transports that propagate it, e.g. [Dsig_tcpnet]'s [Traced]
    frames). *)

val sign_many : t -> ?hint:int list -> string array -> string array
(** Sign a batch of messages, returning wire signatures in input order.
    With {!Options.with_parallel}, the calling domain pops the prepared
    keys, journals every key reservation in consumption order and
    pre-draws the nonces; signature bodies and wire encodings are then
    built on worker domains over contiguous key-index ranges (one range
    per shard — no two domains ever touch the same one-time key), and
    all accounting (translog, stats, metrics, lifecycle) folds back on
    the calling domain. Without a pool this is a plain loop over
    {!sign}. The signer itself stays single-domain: concurrent calls to
    [sign]/[sign_many] on one signer are not supported — the pool
    parallelizes {e within} a call. *)

val background_step : t -> bool
(** Refill at most one group whose queue is below S with one batch
    (Alg. 1 lines 6-11). Returns [true] if work was done. *)

val background_fill : t -> unit
(** Run {!background_step} to quiescence. *)

val queue_length : t -> int list -> int
(** Prepared keys available for the group matching the given hint. *)

(** {1 Zero-downtime rotation (key lifecycle plane)}

    Rotation pre-generates the next-generation batch while the current
    one keeps serving, then cuts over atomically. The protocol is
    propose -> confirm, journaled in the {!Dsig_store.Keystate} store
    when one is configured: a crash at any point between
    {!stage_next_batch} and {!cutover} recovers by retiring the staged
    batch, so exactly one generation is ever live and no one-time key
    is reused. A coordinator ({!Dsig_keylife.Rotation}) typically
    drives the pair; both entry points are also safe to call directly.
    Rotation targets the default group — with extra groups configured,
    cutover discards {e every} group's queued keys (the whole old
    generation retires). *)

val stage_next_batch : t -> int * int64
(** Generate, journal (propose, then seal) and announce the
    next-generation batch without serving from it. Returns
    [(epoch, batch_id)] of the staged generation.
    @raise Invalid_argument if a rotation is already staged. *)

val staged_rotation : t -> (int * int64) option
(** The staged [(epoch, batch_id)], if a rotation is in flight. *)

val staged_unacked : t -> int option
(** Destinations that have not yet acknowledged the staged batch's
    announcement; [None] when no rotation is staged. *)

val cutover : t -> int
(** Atomically cut over to the staged generation: journal (and sync)
    the confirm record, stop re-announcing the dying batches
    ({!Announce.drop}), discard their queued keys, and start serving
    the staged keys. Returns the new epoch. The signer also cuts over
    implicitly if the default queue drains while a rotation is staged,
    so signing availability never waits on the coordinator.
    @raise Invalid_argument if no rotation is staged. *)

val epoch : t -> int
(** The confirmed rotation epoch (0 until the first cutover). *)

type stats = {
  signatures : int;
  batches : int;
  sync_refills : int;  (** foreground had to generate keys *)
  reannounces : int;  (** unACKed announcements re-sent *)
  requests_served : int;  (** pull requests answered *)
}

val stats : t -> stats
(** The counts at the call; the registry counters listed under
    {!create} publish the same counts live. *)

val drain_outbox : t -> (int * Batch.announcement) list
(** Announcements queued when no [send] callback was given, as
    [(destination, announcement)] pairs, oldest first. *)

(** {1 Announcement control plane}

    Announcements are fire-and-forget at the transport level; the
    signer's {!Announce.Plane} closes the loop. Feed inbound control
    frames through {!Control_plane.deliver} and drive
    {!Control_plane.step} alongside {!background_step} — both return
    what to send rather than sending, so any transport can drive a
    signer. *)

val control_plane : t -> Announce.Plane.t

val unacked_announcements : t -> int
(** Outstanding (batch, destination) pairs still awaiting an ACK. *)
