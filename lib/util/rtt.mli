(** Per-destination round-trip-time estimation and retransmission
    timeouts: the Jacobson/Karels SRTT/RTTVAR smoother with an
    RFC-6298-shaped RTO and multiplicative timeout backoff.

    Purely computational and clock-agnostic, like {!Retry}: callers
    stamp transmissions with their own notion of "now" (wall-clock or
    virtual microseconds), measure ACK round trips themselves, and feed
    the samples in. Used by the announcement plane's adaptive
    re-announce pacing ({!Dsig.Announce}): each destination gets one
    estimator, re-announcements are scheduled at [rto_us] after the last
    transmission, every expiry backs the RTO off multiplicatively (loss
    signal), and a clean sample resets the backoff.

    Callers should follow Karn's rule: only feed samples measured on
    transmissions that were never retransmitted (an ACK arriving after a
    retransmission is ambiguous about which copy it acknowledges). *)

type params = {
  alpha : float;  (** SRTT gain per sample (RFC 6298: 1/8) *)
  beta : float;  (** RTTVAR gain per sample (RFC 6298: 1/4) *)
  k : float;  (** RTO = SRTT + max(G, K * RTTVAR) (RFC 6298: 4) *)
  granularity_us : float;  (** G: floor on the variance term *)
  initial_rto_us : float;  (** RTO before any sample arrives *)
  min_rto_us : float;  (** lower clamp on every RTO *)
  max_rto_us : float;  (** upper clamp, also caps the backoff *)
  backoff : float;  (** RTO multiplier per consecutive timeout *)
}

val params :
  ?alpha:float ->
  ?beta:float ->
  ?k:float ->
  ?granularity_us:float ->
  ?initial_rto_us:float ->
  ?min_rto_us:float ->
  ?max_rto_us:float ->
  ?backoff:float ->
  unit ->
  params
(** Defaults: alpha 1/8, beta 1/4, K 4, granularity 10 µs, initial RTO
    5000 µs, clamp [\[200 µs, 64000 µs\]], backoff 2.0.
    @raise Invalid_argument on gains outside (0, 1], a negative K or
    granularity, non-positive or inverted RTO bounds, or backoff < 1. *)

val default : params

type t
(** One destination's estimator state. Immutable — {!sample} and
    {!on_timeout} return fresh states. *)

val init : params -> t
(** No samples yet: RTO is [initial_rto_us], {!srtt_us} is [None]. *)

val sample : params -> t -> rtt_us:float -> t
(** Fold in one clean round-trip measurement (negative values clamp to
    0). Updates SRTT/RTTVAR, recomputes the base RTO, and resets the
    timeout backoff. *)

val on_timeout : params -> t -> t
(** Record a retransmission-timer expiry: the effective RTO doubles
    (by [backoff]) per consecutive expiry until a fresh {!sample}
    resets it. *)

val rto_us : params -> t -> float
(** Current retransmission timeout: the base RTO scaled by
    [backoff]^timeouts, clamped to [\[min_rto_us, max_rto_us\]]. *)

val srtt_us : t -> float option
(** Smoothed RTT; [None] until the first sample. *)

val samples : t -> int
(** Clean samples folded in, ever. *)

val timeouts : t -> int
(** Consecutive timer expiries since the last clean sample. *)
