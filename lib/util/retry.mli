(** Generic retry scheduling: exponential backoff with multiplicative
    jitter, capped delays, and optional attempt/deadline budgets.

    Purely computational — no clocks, no sleeping. Callers feed in their
    own notion of "now" (wall-clock microseconds, or virtual time from
    [Sim.now]) and drive sends themselves; this module only answers
    "is this attempt due?" and "when is the next one?". Used by the
    announcement plane to pace verifier-side {!Dsig.Batch.request}
    repair without flooding. *)

type policy = {
  base_us : float;  (** delay before the first retry *)
  multiplier : float;  (** backoff growth factor per attempt *)
  max_delay_us : float;  (** cap on a single delay *)
  jitter : float;
      (** relative jitter: each delay is scaled by a uniform factor in
          [\[1 - jitter, 1 + jitter\]] to desynchronize retry storms *)
  max_attempts : int;  (** retries before giving up; [0] = unlimited *)
  deadline_us : float;
      (** total budget measured from {!start}; [infinity] = none *)
}

val policy :
  ?base_us:float ->
  ?multiplier:float ->
  ?max_delay_us:float ->
  ?jitter:float ->
  ?max_attempts:int ->
  ?deadline_us:float ->
  unit ->
  policy
(** Defaults: base 1000 µs, multiplier 2.0, max delay 64000 µs, jitter
    0.2, 10 attempts, no deadline. @raise Invalid_argument on a
    non-positive base/multiplier, negative jitter, or jitter >= 1. *)

val delay_us : policy -> rng:Rng.t -> attempt:int -> float
(** Jittered delay before retry number [attempt] (0-based). *)

(** {1 Per-item retry state} *)

type state
(** Tracks one retried item: how many attempts have fired and when the
    next is due. Immutable — {!next} returns a fresh state. *)

val start : policy -> rng:Rng.t -> now:float -> state
(** A new item, first retry due at [now + delay_us ~attempt:0]. *)

val due : state -> now:float -> bool
(** True once the pending attempt's due time has passed. *)

val next : policy -> rng:Rng.t -> state -> now:float -> state option
(** Consume the pending attempt and schedule the following one; [None]
    when the policy's attempt or deadline budget is exhausted (the
    caller should give up on the item). *)

val attempts : state -> int
(** Attempts consumed so far (via {!next}). *)
