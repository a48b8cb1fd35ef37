(** EdDSA-signed batches of HBSS public keys (§4.4 "Amortizing the cost
    of EdDSA signatures").

    The signer's background plane generates [batch_size] key pairs,
    arranges their 32-byte public-key digests as the leaves of a BLAKE3
    Merkle tree and EdDSA-signs the root (bound to the signer id and a
    monotonically increasing batch id). Signing a message then merely
    attaches the key's precomputed inclusion proof; verifying checks the
    proof against a pre-verified root. *)

type t

type timers
(** The batch series of one telemetry bundle, resolved once. *)

val timers : Dsig_telemetry.Telemetry.t -> timers
(** Resolve the [dsig_batch_keygen_us] and [dsig_batch_eddsa_sign_us]
    histograms on the bundle; its clock times them. *)

val make :
  ?timers:timers ->
  Config.t ->
  signer_id:int ->
  batch_id:int64 ->
  eddsa:Dsig_ed25519.Eddsa.secret_key ->
  rng:Dsig_util.Rng.t ->
  t
(** With [timers], records key generation (keys and Merkle tree) and
    the root's EdDSA signature in its two histograms; without, records
    nothing. *)

val batch_id : t -> int64
val root : t -> string
val root_signature : t -> string
val size : t -> int
val key : t -> int -> Onetime.t
val proof : t -> int -> Dsig_merkle.Merkle.proof
val leaves : t -> string array

val root_message : signer_id:int -> batch_id:int64 -> root:string -> string
(** The exact byte string whose EdDSA signature authenticates a batch;
    binding the signer and batch ids prevents cross-batch splicing. *)

(** {1 Background-plane announcements} *)

type announcement = {
  signer_id : int;
  ann_batch_id : int64;
  root_sig : string;
  ann_leaves : string array;  (** 32-byte digests; always present *)
  full_keys : (string * string array) array option;
      (** (public_seed, elements) per key, present iff the scheme is
          merklified HORS, whose verifier needs full keys ahead of time
          (§5.2); every other scheme sends digests only (§4.4) *)
}

val announcement : Config.t -> t -> announcement
val announcement_wire_bytes : Config.t -> int
(** Modeled network size of one announcement (used by the simulator):
    header + signature + per-key payload. *)

val encode_announcement : announcement -> string
val decode_announcement : string -> (announcement, string) result
(** Byte-level announcement encoding for real transports
    ({!Dsig_tcpnet}): signer and batch ids, root signature, leaf
    digests, and optional full keys. *)

(** {1 Announcement-plane control messages}

    The reliability layer of the announcement plane: a verifier that
    accepted an announcement replies with an {!ack}; a verifier whose
    foreground plane hit the slow path for an unknown [(signer, batch)]
    emits a {!request} so the signer can re-announce the batch (pull
    repair). Both are tiny fixed-size frames. *)

type ack = { ack_verifier : int; ack_signer : int; ack_batch : int64 }
type request = { req_verifier : int; req_signer : int; req_batch : int64 }

type control =
  | Ack of ack
  | Request of request
  | Credit of { pressure : int; ack : ack }
      (** An [Ack] carrying the verifier's back-pressure byte
          ([0..255], see {!Dsig_loadctl.Admission.pressure}) — what a
          verifier running admission control sends instead of [Ack],
          so load information rides the ACK wire for free. *)

val control_wire_bytes : int
(** Encoded size of an [Ack]/[Request] (tag + three u64 fields). *)

val control_bytes : control -> int
(** Encoded size of any control message: {!control_wire_bytes}, one
    more for a [Credit]'s pressure byte. *)

val control_target : control -> int
(** The signer a control frame must be routed to. *)

val encode_control : control -> string
val decode_control : string -> (control, string) result
(** Total: never raises; rejects wrong sizes and unknown tags. *)
