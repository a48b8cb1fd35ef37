(** Signed revocation records — the wire format of the key-lifecycle
    plane's compromise response (§4.2: "revocation lists that
    applications check prior to signing or verifying messages").

    A record is a fixed-size [DSIGREV1] frame signed by a revoking
    {e authority} key (a deployment-level identity, distinct from every
    signer's): verifiers apply a record only after checking the
    authority signature, so the revocation channel itself cannot be
    forged by the party being revoked.

    {v
    DSIGREV1            8  magic
    signer     u32 LE   4  revoked process id
    epoch      u32 LE   4  PKI epoch the revocation names
    kind       u8       1  0 = total, 1 = batch boundary
    batch      u64 LE   8  first barred batch id (0 when total)
    issued_us  u64 LE   8  authority clock at issue time
    authority  u32 LE   4  issuing authority id
    sig        ed25519 64  over all prior bytes
    v}

    Enforcement is idempotent: replaying a record (gossip re-sends,
    duplicated control frames) is detected and reported as {!Replayed}
    without touching the directory again. *)

type boundary =
  | Total  (** bar everything, including previously issued signatures *)
  | From of int64
      (** bar batches with id [>= b]; earlier batches keep verifying —
          the shape used when the compromise window is known *)

type t = {
  rev_signer : int;
  rev_epoch : int;
  rev_boundary : boundary;
  rev_issued_us : int64;  (** authority clock (µs) at issue time *)
  rev_authority : int;
}

val size : int
(** Encoded record size in bytes (fixed). *)

val issue : authority_sk:Dsig_ed25519.Eddsa.secret_key -> t -> string
(** Encode and sign a record.
    @raise Invalid_argument on negative ids or batch boundary. *)

val decode : string -> (t, string) result
(** Parse without checking the signature (inspection only — enforcement
    must go through {!verify} or {!enforce}). *)

val verify : authority:Dsig_ed25519.Eddsa.verifying_key -> string -> (t, string) result
(** Parse and check the authority signature under the authority's key,
    prepared once by its holder for every record it checks. *)

(** What {!enforce} did with a record. *)
type outcome =
  | Applied of t  (** the directory was tightened *)
  | Replayed of t
      (** valid, but the directory already enforces at least this much *)
  | Rejected of string  (** malformed or bad authority signature *)

val enforce :
  pki:Dsig.Pki.t ->
  authority:Dsig_ed25519.Eddsa.verifying_key ->
  ?purge:(signer:int -> from_batch:int64 option -> unit) ->
  string ->
  outcome
(** Verify a record and apply it to the directory ({!Dsig.Pki.revoke} /
    {!Dsig.Pki.revoke_from}). [purge] runs only on first application
    (not on replays) — wire it to {!Dsig.Verifier.purge_signer} so
    batch roots admitted before the revocation arrived stop serving the
    fast path. *)
