(** Signer-side announcement tracker: which (batch, verifier) pairs
    still lack an ACK, when to re-send each one, and which batches are
    retained for pull repair. The tracker {!t} is not thread-safe; the
    {!Plane} wrapped around it is, and is the one control plane of
    every {!Signer}, driven inline or by a {!Runtime} domain.

    Re-announcements are paced by ACK round trips: each destination
    gets an RFC-6298-style retransmission timeout from its own observed
    ACK round trips ({!Dsig_util.Rtt}, default constants), and emission
    is spread by one token bucket per tracker ({!Dsig_util.Pacer},
    2000 re-announcements/s, burst 8). There is no attempt budget: a
    pair is re-sent until it is ACKed, {!drop}ped or evicted. See
    DESIGN.md §9. *)

type t

val create : ?retain:int -> clock:(unit -> float) -> unit -> t
(** [retain] (default 64) bounds how many batches are kept for
    re-announcement and request repair — older batches are evicted FIFO,
    abandoning any still-unacknowledged destinations; {!Plane} always
    uses the default. [clock] supplies
    "now" in the caller's time base (wall or virtual µs).
    @raise Invalid_argument if [retain] is not positive. *)

val track : t -> Batch.announcement -> dests:int list -> unit
(** Register a freshly multicast announcement; every destination starts
    unacknowledged with first/last transmission stamped at the current
    clock and a re-announcement timer armed at the destination's RTO.
    Tracking the same batch id again resets its entry. *)

(** What an incoming ACK told us. *)
type ack_outcome = {
  settled : bool;
      (** the (batch, verifier) pair was outstanding and is now
          resolved; [false] for duplicates, unknown batches, and unknown
          destinations — all harmless *)
  redundant : bool;
      (** the pair had been re-sent, yet the ACK arrived sooner after
          the last re-send than any clean round trip ever observed on
          the link — the ACK was already in flight, so the re-send was
          wasted *)
  rtt_sample_us : float option;
      (** clean round-trip sample just fed to the destination's
          estimator; [None] when the pair had been re-sent (Karn's
          rule: ambiguous samples are discarded) *)
  rto_us : float option;
      (** the destination's retransmission timeout after this ACK;
          [Some] whenever [settled] *)
}

val ack : t -> verifier:int -> batch_id:int64 -> ack_outcome
(** Record that [verifier] acknowledged [batch_id]. Idempotent:
    duplicate ACKs return [{ settled = false; _ }] and change
    nothing. *)

val note_pressure : t -> dest:int -> pressure:int -> unit
(** Record the back-pressure level [dest] advertised on a
    [Batch.Credit] frame (clamped to [0, 255]). A loaded destination's re-announce interval stretches by up to 4x at
    full pressure — pacing that one link down without starving others
    (the token budget is spread round-robin per destination). The level
    decays after a few RTOs unless refreshed by further Credit frames. *)

val pressure_level : t -> dest:int -> int
(** [dest]'s live advertised pressure, [0] once it has decayed or for
    destinations that never advertised any. *)

val lookup : t -> batch_id:int64 -> Batch.announcement option
(** Retained announcement for a batch, for serving pull requests. *)

val drop : t -> batch_id:int64 -> int
(** Stop re-announcing a revoked or rotated-out batch: its pending
    transmissions are dropped (returned as a count, recorded in
    {!dropped} — not {!gave_up}) so it stops consuming re-announce
    pacing tokens. The announcement itself stays retained for pull
    repair of previously issued signatures. Unknown batch ids return
    [0]. *)

val drop_before : t -> batch_id:int64 -> int
(** {!drop} every retained batch with id strictly below [batch_id]
    (rotation cutover); returns the total pending transmissions
    dropped. *)

val due : ?now:float -> t -> (int * Batch.announcement) list
(** Destinations whose re-announcement timer has expired, paired with
    the announcement to re-send; advances each one's timer and
    transmission stamps (the caller must actually send them). [now]
    defaults to the tracker's clock.

    Expired pairs are interleaved round-robin across destinations and
    emitted while the token bucket allows; pairs that find the bucket
    empty simply stay due for the next poll. Each destination's
    estimator backs off multiplicatively at most once per call. *)

(** {1 Introspection} *)

val pending : t -> int
(** Outstanding (batch, destination) pairs still awaiting an ACK. *)

val pending_for : t -> batch_id:int64 -> int option
(** Outstanding destinations for one batch; [None] if not retained. *)

val batches : t -> int
(** Batches currently retained. *)

val acked : t -> int
(** ACKs that cleared a pending destination, ever. *)

val gave_up : t -> int
(** Destinations abandoned still unacknowledged when their batch was
    evicted from retention, ever. *)

val redundant : t -> int
(** Re-sends judged redundant by ACK timing, ever. *)

val samples : t -> int
(** Clean RTT samples fed to destination estimators, ever. *)

val dropped : t -> int
(** Pending transmissions discarded by {!drop}, ever. *)

val srtt_us : t -> dest:int -> float option
(** [dest]'s smoothed round-trip estimate; [None] before any clean
    sample. *)

val rto_us : t -> dest:int -> float option
(** [dest]'s current retransmission timeout (including backoff);
    [None] if the destination has never been tracked. *)

(** {1 The signer-side control plane}

    A tracker behind its own lock, with the signer's id and telemetry.
    Announcements are fire-and-forget at the transport level; these
    entry points close the loop. None of them sends anything: they
    return what to send, so any transport (simnet loops, TCP servers,
    in-process loopback) drives any signer through one code
    path, usually via {!Control_plane}. No entry point holds the lock
    while the caller sends, so a transport may re-enter the plane from
    inside a send (an in-process loopback ACKs synchronously). *)
module Plane : sig
  type t

  val create :
    Dsig_telemetry.Telemetry.t -> prefix:string -> id:int ->
    ?sample_hook:(now_us:float -> unit) -> unit -> t
  (** The control plane of signer [id]. [sample_hook] runs at the start
      of every {!step} (see {!Options.with_sample_hook}).

      [prefix] names the signer's series ([dsig_signer], or
      [dsig_runtime] under a {!Runtime}). The plane publishes its
      counts as probes:
      [<prefix>_acks_total] (ACKs that newly settled a destination),
      [<prefix>_reannounces_total] (pairs returned by {!step}),
      [<prefix>_batch_requests_total] (pull requests answered),
      [<prefix>_announce_giveups_total] (destinations abandoned when
      retention evicted their batch) and
      [dsig_reannounce_redundant_total]. It sets the gauges
      [<prefix>_unacked_announcements], [<prefix>_peer_pressure] and
      the pacing gauges [dsig_rtt_us] / [dsig_rto_us] (latest
      observation, plus per-destination [.._dest_<id>] series). *)

  val track : t -> Batch.announcement -> dests:int list -> unit
  (** {!Announce.track}: call it before sending the announcement, so
      that a synchronous ACK finds the batch registered. *)

  val deliver_ack : t -> Batch.ack -> unit
  (** Record a verifier's acknowledgement of a batch announcement. ACKs
      for other signers, unknown batches, or already-acknowledged
      destinations are ignored (idempotent). Feeds the destination's RTT
      estimator and the pacing gauges. *)

  val deliver_request : t -> Batch.request -> Batch.announcement option
  (** The retained announcement to re-send to the requesting verifier
      (pull repair), or [None] if the batch is no longer retained or the
      request names another signer. The caller sends the reply. *)

  val note_pressure : t -> verifier:int -> pressure:int -> unit
  (** Record the back-pressure byte [verifier] piggybacked on a
      [Batch.Credit] frame (loadctl plane, DESIGN.md §15): that
      destination's re-announce interval stretches (up to 4x at 255)
      until the level decays or a lower one arrives. *)

  val step : t -> now:float -> (int * Batch.announcement) list
  (** Re-announcements due at [now] (in the telemetry clock's time
      base), as [(destination, announcement)] pairs the caller must
      send. Advances each destination's RTO timer; the list is bounded
      by the token bucket. *)

  val drop_before : t -> batch_id:int64 -> unit
  (** {!Announce.drop_before} (rotation cutover). *)

  val pending_for : t -> batch_id:int64 -> int option
  val pending : t -> int

  val reannounced : t -> int
  (** Pairs {!step} has returned, ever. *)

  val requests_served : t -> int
  (** Pull requests {!deliver_request} answered, ever. *)
end
