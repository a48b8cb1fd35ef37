(** Real DSig deployed over the simulated network: each party's
    background plane runs as a simnet process, and announcements travel
    as modeled network messages (size = {!Dsig.Batch.announcement_wire_bytes})
    instead of the instant in-process delivery of {!Dsig.System}.

    This is the integration point the paper's Figure 3 depicts: the
    asynchrony between planes is real here — a signature issued before
    the verifier's background plane has received and checked the
    announcement takes the slow path; one issued after takes the fast
    path. Used by the integration tests and available to application
    harnesses.

    The announcement plane is reliable end to end: verifiers ACK every
    admitted announcement ({!Dsig.Batch.control} frames on the same
    modeled network), signers re-announce unacknowledged batches with
    exponential backoff (a per-party pump polled every
    [reannounce_poll_us]), and a verifier that hits the slow path on an
    unknown batch emits a pull-repair {!Dsig.Batch.request}. Under
    message loss, reordering or corruption (see {!Dsig_simnet.Net.set_faults}
    and {!corrupting_mutate}) the system degrades to slow-path
    verification and converges back to the fast path once the network
    heals. *)

type t

(** What travels on the modeled wire. *)
type payload =
  | P_announce of float * Dsig.Batch.announcement
      (** Announcement stamped with its virtual send time. *)
  | P_control of Dsig.Batch.control
      (** Verifier→signer ACK / batch-request reliability traffic. *)
  | P_checkpoint of string
      (** A gossiped transparency-log checkpoint (encoded
          {!Dsig_translog.Checkpoint}), broadcast by the log operator
          (node 0) and fed to every party's split-view monitor. *)
  | P_revoke of string
      (** A signed revocation record (encoded
          {!Dsig_keylife.Revocation}), broadcast by {!revoke} and
          enforced on each receiving node's own directory. *)

(** Configuration of the optional per-node time-series plane; build
    with {!timeseries}. *)
type timeseries_opts

val timeseries :
  ?poll_us:float ->
  ?capacity:int ->
  ?slow_share_budget:float ->
  ?fast_window_us:float ->
  ?slow_window_us:float ->
  ?max_burn:float ->
  unit ->
  timeseries_opts
(** Sim-scale defaults: sample every 500 virtual µs into 1024-point
    rings, and alert (rule {!slow_burn_rule}) when the slow-path share
    of verifications burns a [slow_share_budget] (default 0.1 = 10%
    slow) error budget faster than [max_burn] (default 2.0) over both a
    [fast_window_us] (default 3 ms) and a [slow_window_us] (default
    10 ms) trailing window.
    @raise Invalid_argument on a negative poll interval. *)

val slow_burn_rule : string
(** Name of the per-node slow-path burn-rate alert rule
    (["node_slow_path_burn"]): [dsig_verifier_slow_total] over
    [dsig_verifier_verifies_total], read from the node's own registry. *)

val create :
  ?latency_us:float ->
  ?bg_poll_us:float ->
  ?reannounce_poll_us:float ->
  ?groups:(int -> int list list) ->
  ?seed:int64 ->
  ?options:Dsig.Options.t ->
  ?translog_dir:string ->
  ?translog_poll_us:float ->
  ?log_id:int ->
  ?timeseries:timeseries_opts ->
  ?verifiers_of:(int -> int list) ->
  Dsig_simnet.Sim.t ->
  Dsig.Config.t ->
  n:int ->
  unit ->
  t
(** Starts [n] parties on [sim]. [bg_poll_us] (default 5.0) is how often
    each signer's background plane checks its queues (one batch per
    step, as in Algorithm 1); [reannounce_poll_us] (default 50.0) is how
    often each signer polls its control plane for due re-announcements
    ({!Dsig.Control_plane.step}). Announcements incur network latency
    plus serialization of their modeled size.

    [options] (default {!Dsig.Options.default}) configures every
    party's signer and verifier. Its telemetry bundle is the
    deployment's: each party gets a copy of it with a registry of its
    own ({!telemetry}), so every party's signer, verifier, key store,
    monitor, sampler and alerter publish under the one [dsig_*] name
    of each series. The lifecycle aggregator stays shared, so a
    signature's sign and verify spans join across parties; the clock
    is the bundle's at creation time. The deployment bundle itself
    receives
    [dsig_deploy_announcements_{sent,delivered}_total] (probes of
    {!announcements_sent} / {!announcements_delivered}),
    [dsig_deploy_announcements_rejected_total] and
    [dsig_deploy_control_frames_total] counters and the
    [dsig_deploy_announce_net_us] histogram of virtual time
    announcements spend on the modeled wire. Pass a bundle created with
    [~clock:(fun () -> Sim.now sim)] so latency histograms, lifecycle
    spans and the re-announce/pull-repair timers run in virtual time.

    When [options] carries a store ({!Dsig.Options.with_store}), every
    signer gets a durable key-state journal in its own subdirectory
    ([<dir>/node-<id>]) with the store's other settings; a later
    deployment created over the same store resumes each node's batch
    counter, so no one-time key is reused across the restart. Close
    with {!close} for a clean shutdown.

    [translog_dir] turns on the transparency plane: every signature any
    party issues is appended to one shared durable
    {!Dsig_translog.Translog} in that directory, node 0 signs a fresh
    checkpoint with the deployment's log identity (an Ed25519 key
    distinct from every party's) whenever the log grew during the last
    [translog_poll_us] (default 200.0) window and gossips it to all
    parties as [P_checkpoint] frames, and each party feeds its own
    {!Dsig_translog.Monitor}. The deployment bundle additionally
    receives [dsig_deploy_checkpoints_gossiped_total] and
    [dsig_deploy_checkpoint_alarms_total] counters plus the log's
    [dsig_translog_*] series; the monitors count into their party's
    registry. [log_id] (default 0) names the log in its checkpoints.

    [timeseries] turns on the per-node time-series plane: every party
    gets its own {!Dsig_timeseries.Sampler} (ticked by the signer's
    re-announce pump through {!Dsig.Options.with_sample_hook}, so
    timelines advance in virtual time) over that party's registry, and
    a {!Dsig_timeseries.Alert} with the {!slow_burn_rule} burn-rate rule
    over that node's slow-path verification share. The node's timeline
    thus holds its own [dsig_verifier_*] and [dsig_signer_*] series —
    the series faultmatrix tests assert dip-and-recover shapes on.
    Retrieve with {!sampler} / {!alerter}. Every alerter logs its
    fire/resolve transitions through {!Dsig.Log}
    ({!Dsig_timeseries.Alert.on_transition}).

    [verifiers_of] restricts each signer's announcement fan-out to the
    given verifier group instead of all [n] parties — at fleet scale a
    signer announcing to a thousand nodes would melt the background
    plane. An empty list falls back to everyone. *)

val sampler : t -> int -> Dsig_timeseries.Sampler.t option
(** Party [i]'s sampler ([None] without [?timeseries]). *)

val alerter : t -> int -> Dsig_timeseries.Alert.t option
(** Party [i]'s burn-rate alerter ([None] without [?timeseries]). *)

val telemetry : t -> int -> Dsig_telemetry.Telemetry.t
(** Party [i]'s bundle: the deployment's lifecycle and clock
    over party [i]'s own registry. Read a per-party gauge (say
    [dsig_rtt_us]) here: in {!snapshot} gauges of the same name add
    up. *)

val snapshot : t -> Dsig_telemetry.Registry.Snapshot.t
(** The deployment view: the deployment bundle's snapshot merged
    ({!Dsig_telemetry.Registry.Snapshot.merge}) with every party's, so
    each counter reads its sum over the parties. *)

val signer : t -> int -> Dsig.Signer.t
val verifier : t -> int -> Dsig.Verifier.t

val pki : t -> int -> Dsig.Pki.t
(** Party [i]'s key directory. Each node holds its own {!Dsig.Pki} —
    a revocation is local knowledge until its record reaches the node
    over the network. *)

(** {1 Revocation plane}

    Signed {!Dsig_keylife.Revocation} records, broadcast as
    {!P_revoke} frames over the same modeled network as everything
    else, enforced independently on each receiving node: verify the
    authority signature, tighten the node's directory
    ({!Dsig.Pki.revoke} / {!Dsig.Pki.revoke_from}), purge the node's
    cached batch roots past the boundary
    ({!Dsig.Verifier.purge_signer}). The deployment telemetry bundle
    receives [dsig_revocation_issued_total] /
    [dsig_revocation_applied_total] / [dsig_revocation_replayed_total]
    / [dsig_revocation_rejected_total] counters and the
    [dsig_revocation_propagate_us] histogram (issue-to-enforce latency
    per node, in the bundle's time base). *)

val revoke : ?from_batch:int64 -> ?epoch:int -> ?src:int -> t -> signer:int -> unit -> string
(** Issue a revocation for [signer], enforce it immediately on [src]
    (default 0) and broadcast it to every other node. Without
    [from_batch] the revocation is total; with it, batches [>=
    from_batch] are barred while earlier ones keep verifying. Returns
    the encoded record (so tests can replay or corrupt it). Idempotent
    end to end: re-delivering the record is detected and counted as a
    replay. *)

val deliver_revocation : t -> node:int -> string -> unit
(** Hand an encoded record straight to one node's enforcement path,
    bypassing the network — the injection point for replay and forgery
    tests. *)

val net : t -> payload Dsig_simnet.Net.t
(** The underlying modeled network — inject faults with
    {!Dsig_simnet.Net.set_faults} (pass {!corrupting_mutate} as the
    [mutate] hook) and lift them with {!Dsig_simnet.Net.clear_faults}. *)

val flip_random_bit : Dsig_util.Rng.t -> string -> string
(** Flip one uniformly random bit of [s] (identity on the empty
    string) — the corruption primitive behind {!corrupting_mutate},
    exported for drivers ({!Fleetrun}) that tamper with raw wire
    signatures instead of decoded payloads. *)

val corrupting_mutate : seed:int64 -> payload -> payload option
(** Payload corruption for {!Dsig_simnet.Net.set_faults}: serializes the
    payload, flips one uniformly random bit, and re-decodes. [None]
    (undecodable) models a frame the receiver's length/tag checks
    reject; [Some] is a decoded-but-tampered frame that must then fail
    the cryptographic checks downstream. Partially apply to get the
    hook: [Net.set_faults ... ~mutate:(Deploy.corrupting_mutate ~seed)]. *)

(** {1 Transparency plane} (all [None]/no-ops without [translog_dir]) *)

val translog : t -> Dsig_translog.Translog.t option
(** The deployment's shared transparency log. *)

val translog_pk : t -> Dsig_ed25519.Eddsa.public_key option
(** The log identity's public key — what monitors verify heads with. *)

val translog_sk : t -> Dsig_ed25519.Eddsa.secret_key option
(** The log identity's {e secret} key. Deliberately exposed so
    equivocation experiments can forge a correctly-signed split-view
    head; a production log would keep this key to itself. *)

val monitor : t -> int -> Dsig_translog.Monitor.t option
(** Party [i]'s split-view monitor. *)

val gossip_checkpoint : t -> string -> unit
(** Broadcast an arbitrary encoded checkpoint over the same gossip path
    honest heads take (node 0 to everyone, monitors included) — the
    injection point for split-view tests. *)

val checkpoints_gossiped : t -> int

val sign : t -> signer:int -> ?hint:int list -> string -> string
(** Callable from inside or outside simulation processes. *)

val verify : t -> verifier:int -> msg:string -> string -> bool

val announcements_sent : t -> int
(** Includes re-announcements. *)

val announcements_delivered : t -> int

val close : t -> unit
(** Flush every verifier's held ACKs and close every signer's key-state
    journal with a clean-shutdown marker (a no-op without a store in
    [options]). The simulation processes keep running; call
    when the virtual run is over. *)
