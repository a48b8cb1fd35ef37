(** The DSig signer — Algorithm 1 of the paper.

    The signer is configured with {e verifier groups}: sets of processes
    likely to verify the same signatures. Each group has a queue of
    prepared one-time keys; the {e background plane}
    ({!background_step}) refills queues below the threshold S by
    generating an EdDSA-signed batch of keys and multicasting its
    announcement to the group, while the {e foreground plane} ({!sign})
    pops a prepared key and produces the HBSS signature — no EdDSA work,
    no randomness and no encoding on the critical path. At seal time the
    background plane writes every byte of a key's signature that does
    not depend on the message (header, public seed, nonce, batch proof,
    root signature; {!Wire.batch_bytes}, {!Wire.key_bytes}); a sign
    allocates the signature once, blits those bytes in, hashes the
    message and writes the revealed chain elements between them
    ({!Dsig_hbss.Wots.sign_into}).

    A sealed batch is handed to its group whole: a pop is one atomic
    fetch-and-add on the current batch's next index. The queue lock is
    taken only to install the next batch, to cut over, and on the one
    pop that leaves the group below S, to wake the driver.

    One signer, two drivers. The background plane is driven inline (a
    simnet process, interleaved {!background_step} calls, or the
    foreground itself when a queue runs dry) or by a dedicated domain
    ({!Runtime}, which loops on {!await_refill} and {!background_step};
    the paper gives the background plane its own core, §8). Both take
    the same path: a foreground that finds its queue empty takes the
    seal lock, checks again, and refills only if the queue is still
    empty.

    {b Concurrency.} The signer may be driven from two domains. A queue
    lock guards the group queues, the staged rotation and the outbox;
    a seal lock serialises sealing (batch ids, key seeds and nonces,
    {!Batch.make}, the journal's seal and rotation records). Lock order
    is seal, then queue; the seal lock is never taken under the queue
    lock, and no callback ([send], the translog sink) runs under the
    queue lock. A batch's keys are queued before its seal lock is
    released, so a {!cutover} is never followed by keys of a batch
    sealed earlier. The announcement plane and the journal have locks
    of their own. Foreground calls ({!sign}, {!sign_ctx})
    may come from several domains at once, beside a driver domain and
    the control plane: each prepared key goes to exactly one caller. *)

type t

val create :
  Config.t ->
  id:int ->
  eddsa:Dsig_ed25519.Eddsa.secret_key ->
  rng:Dsig_util.Rng.t ->
  ?send:(dest:int -> Batch.announcement -> unit) ->
  ?groups:int list list ->
  ?prefix:string ->
  ?options:Options.t ->
  verifiers:int list ->
  unit ->
  t
(** [verifiers] is the set of all known processes (the default group).
    [groups] adds application-specific verifier groups (Alg. 1 line 2).
    [send] delivers background announcements (batch refills and staged
    rotations) and runs under the seal lock; without it, each sealed
    batch's announcement is recorded once, with its destinations, in an
    outbox ({!drain_announcements}, {!drain_outbox}). The control plane
    ({!Control_plane}) never sends — it returns what to send.

    [options] (default {!Options.default}) supplies the telemetry
    bundle, the optional key-state store, transparency-log sink and
    sample hook. Re-announcements are paced by per-destination
    ACK round trips (see {!Announce} and DESIGN.md §9).

    When [options] carries a store ({!Options.with_store}), the signer
    opens a durable {!Dsig_store.Keystate} journal under the store
    directory: every batch id is journaled and synced when the batch is
    sealed, on the background plane and before any of its keys are
    queued, and the batch counter resumes past every id a previous
    incarnation sealed, so a restart never seals a batch id twice
    (DESIGN.md §10). The foreground sign writes nothing; a crash loses
    the queued keys. The journal is checked against {!Config.fingerprint}; a store
    that cannot be opened or belongs to a different configuration
    raises [Failure].

    [prefix] (default [dsig_signer]; {!Runtime} uses [dsig_runtime])
    names the signer's series. The telemetry bundle probes the {!stats}
    counts as [<prefix>_signatures_total] / [<prefix>_sign_waits_total]
    / [<prefix>_batches_total] / [<prefix>_reannounces_total] /
    [<prefix>_batch_requests_total] counters, and receives the control
    plane's series under the same prefix ({!Announce.Plane.create}:
    [<prefix>_acks_total] / [<prefix>_announce_giveups_total] /
    [dsig_reannounce_redundant_total], the
    [<prefix>_unacked_announcements] and [<prefix>_peer_pressure]
    gauges and the pacing gauges [dsig_rtt_us] / [dsig_rto_us]),
    [<prefix>_sign_us] and [<prefix>_batch_gen_us] latency histograms,
    the [<prefix>_queue_depth] gauge (prepared keys across all groups,
    summed over the signers sharing the handle; read from the queues at
    each snapshot, {!Dsig_telemetry.Registry.gauge_probe}, and 0 once the
    signer is garbage),
    the key-lifecycle series ([dsig_rotation_staged_total] /
    [dsig_rotation_cutovers_total] / [dsig_rotation_dropped_keys_total]
    counters, the [dsig_rotation_cutover_us] histogram and the
    [dsig_rotation_epoch] gauge). *)

val id : t -> int
val config : t -> Config.t

val store : t -> Dsig_store.Keystate.t option
(** The durable key-state journal, when the signer was created with
    {!Options.with_store}. *)

val store_recovery : t -> Dsig_store.Keystate.report option
(** What recovery found when the store was opened: whether the previous
    incarnation shut down cleanly, and the resumed batch counter. *)

val close : t -> unit
(** Write the store's clean-shutdown marker and close it. A no-op
    without a store; idempotent. *)

val sign : t -> ?hint:int list -> string -> string
(** [sign t ~hint msg] returns the encoded DSig signature. The hint
    selects the smallest group containing it (Alg. 1 line 15); an
    omitted or unmatched hint falls back to the default group. If the
    chosen queue is empty the sign waits (counted in {!stats}): under
    the seal lock it takes the keys a driver domain just queued, or
    else refills the queue itself (slow path) — or, for the default
    group with a rotation staged, cuts over.

    When the bundle's {!Dsig_telemetry.Lifecycle} is enabled, every
    signature also registers a lifecycle sign event under its trace id
    (one mutable load when disabled). *)

val sign_ctx : t -> ?hint:int list -> string -> string * Dsig_telemetry.Trace_ctx.t
(** Like {!sign}, additionally returning the signature's trace context
    (for transports that propagate it, e.g. [Dsig_tcpnet]'s [Traced]
    frames). *)

val background_step : t -> bool
(** Refill at most one group whose queue is below S with one batch
    (Alg. 1 lines 6-11). Returns [true] if work was done. *)

val background_fill : t -> unit
(** Run {!background_step} to quiescence. *)

val await_refill : t -> bool
(** Block until some queue needs a refill ([true]) or {!stop} was
    called ([false]). A driver domain loops
    [while await_refill t do ignore (background_step t) done]. *)

val stop : t -> unit
(** Make {!await_refill} return [false], now and from then on. Signing
    keeps working: it refills inline. *)

val queue_length : t -> int list -> int
(** Prepared keys available for the group matching the given hint. *)

val queue_depth : t -> int
(** Prepared keys across all groups: this signer's share of
    [<prefix>_queue_depth]. *)

(** {1 Zero-downtime rotation (key lifecycle plane)}

    Rotation pre-generates the next-generation batch while the current
    one keeps serving, then cuts over atomically. The protocol is
    propose -> confirm, journaled in the {!Dsig_store.Keystate} store
    when one is configured: a crash at any point between
    {!stage_next_batch} and {!cutover} recovers by clearing the
    proposal, so the epoch never advances past a cutover that did not
    happen, and the staged batch's id is never sealed again. A coordinator ({!Dsig_keylife.Rotation}) typically
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
  sign_waits : int;  (** signs that found their queue empty *)
  reannounces : int;  (** unACKed announcements re-sent *)
  requests_served : int;  (** pull requests answered *)
}

val stats : t -> stats
(** The counts at the call; the registry counters listed under
    {!create} publish the same counts live. *)

val drain_announcements : t -> (Batch.announcement * int list) list
(** The outbox: each batch sealed since the last drain when no [send]
    callback was given, once, with its destinations (possibly none),
    oldest first. *)

val drain_outbox : t -> (int * Batch.announcement) list
(** {!drain_announcements} as [(destination, announcement)] pairs. *)

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
