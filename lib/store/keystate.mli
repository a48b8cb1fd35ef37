(** The durable signer key-state journal: which batch ids a restarted
    signer may still use.

    Reusing a hash-based one-time key is a forgery vector. A key is
    named by its batch id and its index in the batch, and a batch id
    is used by one sealed batch only, so a signer never reuses a key as
    long as it never seals a batch id twice. The journal makes that
    durable at the batch, not the key: [seal] appends a [Batch_sealed]
    record to the {!Wal} and fsyncs it before it returns, and the signer
    seals before any of the batch's keys are queued (the batch is the
    block of one-time keys NIST SP 800-208 lets a stateful signer
    reserve). The foreground sign writes nothing; a crash loses the
    batch's unused keys, never a key's uniqueness. [checkpoint] folds
    the state into a fixed-size {!Snapshot} and rotates the WAL segment
    (pruning segments the snapshot covers).

    {b Recovery.} Every record is synced before its call returns, so a
    crash can only tear a frame whose call never returned. Recovery
    replays each segment up to its first bad frame and resumes at the
    newest sealed or proposed batch id + 1. A store written in an older
    format (an old snapshot magic, or a record tag that is gone) is
    refused with an [Error]. *)

(** {1 Journal records} *)

type record =
  | Batch_sealed of int64  (** a batch id, journaled before its keys are queued *)
  | Checkpoint of int64  (** a snapshot covering WAL seq <= the payload *)
  | Clean_shutdown of int64  (** orderly close; payload = next batch id *)
  | Rotation_proposed of { epoch : int; batch_id : int64 }
      (** a staged next-generation batch, journaled before its seal *)
  | Rotation_confirmed of { epoch : int; batch_id : int64 }
      (** atomic cutover to the staged batch *)

val encode_record : record -> string
val decode_record : string -> (record, string) result
(** Total: [Error] on unknown tags and wrong sizes, never raises. *)

(** {1 Configuration} *)

type config = {
  dir : string;  (** store directory (created if missing) *)
  fsync : bool;  (** [false] skips physical fsync (tests) *)
  checkpoint_every : int;  (** auto-checkpoint per N seals; 0 = never *)
}

val config : ?fsync:bool -> ?checkpoint_every:int -> string -> config
(** Defaults: fsync on, checkpoint every 16 seals.
    @raise Invalid_argument on a negative checkpoint cadence. *)

(** {1 Recovery report} *)

type report = {
  had_snapshot : bool;
  segments_replayed : int;
  records_replayed : int;
  torn_segments : int;  (** segments that end in a bad frame *)
  torn_bytes : int;  (** bytes discarded across those tails *)
  clean : bool;  (** previous incarnation closed with {!close} *)
  next_batch_id : int64;
  epoch : int;  (** confirmed rotation epoch *)
  rotation_rolled_back : (int * int64) option;
      (** a proposed-but-unconfirmed rotation that recovery cleared (its
          staged batch's key material died with the process), leaving
          exactly one live generation *)
}

(** {1 The journal} *)

type t

val open_ :
  ?telemetry:Dsig_telemetry.Telemetry.t ->
  ?fingerprint:string ->
  config ->
  (t * report, string) result
(** Open (or create) the store in [config.dir]: load the snapshot,
    replay newer WAL segments up to each one's first bad frame, fold
    the result into a new snapshot (pruning the replayed segments), and
    start a fresh segment whose every record is synced. Nothing is
    written unless replay succeeds. [fingerprint] (the signer's
    {!Dsig.Config} fingerprint) is recorded in snapshots and checked
    against an existing store — a mismatch is an [Error], because
    resuming key state under a different scheme silently invalidates
    the reuse guarantee. All entry points are thread-safe (one internal
    lock), so the runtime's two domains can share a handle.

    Telemetry (on top of the {!Wal} series):
    [dsig_store_recoveries_total], [dsig_store_torn_truncations_total],
    [dsig_store_snapshots_total] and [dsig_rotation_rollbacks_total]
    counters and the [dsig_store_wal_segments] gauge. *)

val seal : t -> batch_id:int64 -> unit
(** Journal and sync a freshly generated batch; triggers an automatic
    {!checkpoint} every [checkpoint_every] seals. Call before any of the
    batch's keys can sign. *)

(** {2 Rotation (key lifecycle plane)}

    Zero-downtime rotation journals a propose -> confirm pair around
    the staged next-generation batch. Propose {e before} sealing the
    staged batch; a crash at any point before {!confirm_rotation}
    recovers by clearing the proposal ([report.rotation_rolled_back]
    and the [dsig_rotation_rollbacks_total] counter), so the epoch never
    advances past a cutover that did not happen. *)

val propose_rotation : t -> epoch:int -> batch_id:int64 -> unit
(** Journal and sync that [batch_id] is the staged batch for [epoch].
    @raise Invalid_argument if a rotation is already pending or [epoch]
    does not advance the confirmed epoch. *)

val confirm_rotation : t -> epoch:int -> batch_id:int64 -> unit
(** Atomically cut over: journal and sync the confirm record, and
    advance the epoch.
    @raise Invalid_argument without a matching pending propose. *)

val epoch : t -> int
val pending_rotation : t -> (int * int64) option

val checkpoint : t -> unit
(** Snapshot the current state (atomic rename), rotate to a fresh WAL
    segment, and prune segments the snapshot covers. *)

val close : t -> unit
(** Append the clean-shutdown marker and close. Idempotent. *)

val crash : t -> unit
(** Drop the handles without marker — crash-test hook. *)

val next_batch_id : t -> int64
(** The smallest batch id no sealed or proposed batch has used — the
    restarted signer's starting counter. *)

val wal_path : t -> string
(** The active segment's path (crash tests cut it at chosen offsets). *)

val synced_bytes : t -> int
(** The active segment's fsync horizon (see {!Wal.synced_bytes}); the
    segment's size after every record. *)

(** {1 Read-only scan (CLI)} *)

type scan = {
  scan_snapshot : Snapshot.t option;
  scan_segments : (int64 * Wal.recovery) list;  (** (seq, recovery) *)
  scan_next_batch_id : int64;
  scan_clean : bool;
  scan_torn : bool;
  scan_epoch : int;
  scan_pending_rotation : (int * int64) option;
  scan_rotations : (int * int64) list;
      (** confirmed rotation records found in the journal, oldest first —
          rotations older than the last snapshot are folded away and do
          not appear *)
}

val scan : dir:string -> (scan, string) result
(** Inspect a store without opening it for writing: no new segment, no
    truncation, no lock. [Error] on an unreadable directory, corrupt or
    old-format snapshot, or unreadable segment. *)
