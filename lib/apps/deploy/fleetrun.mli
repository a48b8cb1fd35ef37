(** Fleet-scale overload driver (DESIGN.md §15).

    Runs a {!Dsig_simnet.Fleet} scenario against {e real} signers and
    verifiers on the discrete-event simulator. All crypto is genuine
    (real EdDSA keys, real batch trees, real wire bytes) but executes in
    zero virtual time; what virtual time models is the part overload is
    made of — per-verifier inbox queues, a configurable service time per
    verification, wire latency. Every verifier carries a
    {!Dsig_loadctl.Admission} controller fed the measured queue sojourn
    of each arrival, every signer paces adaptively on the {!Batch.Credit}
    pressure bytes the verifiers return, so the full control loop
    (queue builds → sojourn crosses target → AIMD cuts rate + Repair
    class sheds → pressure byte rises → signers stretch re-announce
    pacing → queue drains) closes inside one deterministic run.

    Population layout: verifier node ids are [0..verifiers-1] and signer
    node ids are [verifiers..verifiers+signers-1], so acknowledgement
    and credit frames route back through {!Batch.control_target} alone.

    Determinism: same [Fleet.spec] (including seed) + same parameters
    produce the identical run — message ordering, shed decisions and
    all counters. *)

type phase = {
  p_from_us : float;
  p_until_us : float;
  p_offered : int;  (** client sign+send ops issued in the window *)
  p_accepted : int;  (** genuine signatures verified [true] *)
  p_false_accepts : int;  (** corrupted signatures verified [true] — must be 0 *)
  p_offered_verify : int;  (** fast-path class admissions offered *)
  p_shed_verify : int;
  p_offered_repair : int;  (** slow-path (uncached-batch) class offered *)
  p_shed_repair : int;
  p_sojourn_p99_us : float;
      (** p99 queue sojourn of {e accepted} verifications in the window *)
}
(** Per-window slice of the run's counters (deltas, not cumulative).
    Windows are [phase_us] wide; the last one is closed at
    [duration_us] and may be shorter. *)

type result = {
  duration_us : float;
  offered : int;  (** client sign+send ops issued *)
  accepted : int;  (** genuine signatures verified [Fast] or [Slow] *)
  false_accepts : int;  (** corrupted signatures verified [Fast] or [Slow] — must be 0 *)
  rejected : int;  (** signatures verified [Rejected _] *)
  in_flight : int;
      (** on the wire or in an inbox when the run ended, so that [offered =
          accepted + false_accepts + rejected + shed_verify + shed_repair + in_flight] *)
  admission : Dsig_loadctl.Admission.stats;  (** summed over all verifiers *)
  goodput_ops_per_sec : float;  (** accepted / duration *)
  shed_ratio : float;  (** shed / offered over all admission classes; 0 when idle *)
  sojourn_p99_us : float;
  peak_pressure : int;  (** highest pressure byte observed, 0..255 *)
  phases : phase list;  (** oldest first *)
}

val run :
  ?latency_us:float ->
  ?announce_latency_us:float ->
  ?announce_drop:float ->
  ?service_us:float ->
  ?slow_service_us:float ->
  ?params:Dsig_loadctl.Admission.params ->
  ?duration_us:float ->
  ?phase_us:float ->
  ?corrupt_every:int ->
  ?reannounce_poll_us:float ->
  ?idle_poll_us:float ->
  Dsig.Config.t ->
  Dsig_simnet.Fleet.t ->
  result
(** [run cfg fleet] builds the population, drives it for [duration_us]
    (default 1 s) of virtual time and returns the aggregate counters.

    - [latency_us] (default 5): one-way wire latency for client sends
      and verifier-to-signer control frames.
    - [announce_latency_us] (default [latency_us]): latency of signer
      announcements. Setting it {e above} [latency_us] makes fresh
      signatures race their own batch announcements.
    - [announce_drop] (default 0): probability that any one
      signer-to-verifier announcement delivery (first send or
      re-announce) is lost. Until a retry lands, that batch's
      signatures verify on the slow path — the organic Repair-class
      load the admission controller classifies and, under congestion,
      sheds first. The pull-repair reply path is not subject to drops.
    - [service_us] (default 50): virtual service time a verifier spends
      per admitted fast-path verification; [slow_service_us] (default
      4x) per slow-path one — the inline-EdDSA cost that makes overload
      cascade. Shed arrivals cost {e no} service time; that is the
      mechanism by which shedding saves the queue.
    - [params]: admission-controller parameters for every verifier.
    - [phase_us] (default [duration_us]): accounting window width.
    - [corrupt_every]: when > 0, every Nth client op has one random bit
      of its {e message} flipped after signing (the signature no longer
      covers it) and is counted toward [false_accepts] if it still
      verifies — any non-zero count is a forgery.
    - [reannounce_poll_us] (default 20 000): period of the global pump
      that steps every signer's {!Dsig.Control_plane} (re-announce
      timers, pressure-TTL expiry).
    - [idle_poll_us] (default 20 000): how often an inactive (churned
      out / zone-out) client re-checks the scenario for reactivation.

    Capacity math for callers dialing overload: the fleet's fast-path
    capacity is roughly [verifiers * 1e6 / service_us] ops/s, so a
    factor-F overload sets the spec's [base_rate_per_sec] to
    [F * capacity / signers].

    @raise Invalid_argument on non-positive [duration_us] or negative
    times. *)
