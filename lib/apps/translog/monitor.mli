(** A split-view monitor: the independent process that makes gossiped
    checkpoints mean something.

    The monitor pins one root per tree size ever observed. Every new
    checkpoint must either match a pinned root exactly or come with a
    consistency proof bridging it to the monitor's current head; a
    checkpoint that contradicts a pinned root is a {e split view} —
    cryptographic evidence that the log operator showed different
    histories to different parties — and is never forgiven or
    overwritten.

    The monitor trusts nothing but the log's public key and the Merkle
    math: proofs are fetched through a caller-supplied closure (in
    deployments, {!Serve.fetch_consistency} against any replica) so the
    monitor itself stays transport-agnostic and trivially testable. *)

type alarm =
  | Bad_signature  (** checkpoint signature failed against the log key *)
  | Wrong_log of { expected : int; got : int }
  | Split_view of { size : int; known_root : string; offered_root : string }
      (** two different roots for one tree size — equivocation *)
  | Inconsistent of { old_size : int; new_size : int }
      (** the log served a proof that does not verify *)
  | No_proof of { old_size : int; new_size : int; reason : string }
      (** the log would not serve a proof at all *)

val alarm_to_string : alarm -> string

type verdict =
  | Advanced  (** accepted; the monitor's head moved forward *)
  | Stale  (** accepted, but an older size than the head *)
  | Duplicate  (** accepted; identical to the head *)
  | Alarmed of alarm  (** rejected; also recorded in {!alarms} *)

type t

val create :
  ?telemetry:Dsig_telemetry.Telemetry.t ->
  log_id:int ->
  verify:(msg:string -> signature:string -> bool) ->
  unit ->
  t
(** Telemetry: [dsig_translog_monitor_observations_total],
    [dsig_translog_monitor_alarms_total] and
    [dsig_translog_split_views_total] counters. *)

val observe :
  t ->
  Checkpoint.t ->
  fetch_consistency:
    (old_size:int -> new_size:int -> (Dsig_merkle.Logtree.proof, string) result) ->
  verdict
(** Feed one checkpoint. [fetch_consistency] is called
    at most once, only when the checkpoint's size is new to the monitor
    and a head already exists; bridging from a size-0 head is trivially
    consistent (RFC 9162 §2.1.4.1) and needs no proof. Thread safe. *)

val head : t -> Checkpoint.t option
(** The largest checkpoint accepted so far. *)

val alarms : t -> alarm list
(** Every alarm ever raised, oldest first. *)

val split_views : t -> int
