(** Public-key infrastructure with epoch-versioned bindings (§4.1–4.2).

    The v0 surface was a write-once table standing in for "an
    administrator pre-installing the keys". The key-lifecycle plane
    versions each process id's EdDSA binding by {e epoch}: rotating a
    signer binds a fresh key at the next epoch while the old bindings
    remain on record so previously issued signatures stay auditable.
    All operations are thread-safe — verifiers consult the directory
    from every domain while revocations land concurrently. *)

type t

type binding = { epoch : int; key : Dsig_ed25519.Eddsa.public_key }

type revocation = [ `None | `Total | `From of int64 ]
(** [`From b] bars batches with id [>= b] while earlier batches keep
    verifying — the shape a signed revocation record carries when a
    compromise window is known. [`Total] bars everything. *)

val create : unit -> t

val bind : t -> id:int -> epoch:int -> Dsig_ed25519.Eddsa.public_key -> unit
(** Bind [id]'s key at [epoch], preparing its
    {!Dsig_ed25519.Eddsa.verifying_key} once, here. Re-binding the same
    (id, epoch) to key bytes that compare equal is idempotent. A key
    that does not decode still binds; {!allowed} then returns [None]
    for it, so every signature under it is rejected.
    @raise Invalid_argument if (id, epoch) is already bound to a
    different key, or [epoch] is negative. *)

val active : t -> int -> binding option
(** The highest-epoch binding for [id], ignoring revocation state (use
    {!allowed} on the verification path). *)

val history : t -> int -> binding list
(** All bindings for [id] in ascending epoch order. *)

val ids : t -> int list
(** Bound, not-totally-revoked ids. *)

(** {1 Revocation (§4.2)}

    "DSig can support key revocation through revocation lists that
    applications check prior to signing or verifying messages."
    Revocation is consulted on the verification path, not baked into
    signatures. *)

val revoke : t -> int -> unit
(** Total revocation: every signature from [id] is rejected, including
    previously issued ones. Idempotent; unknown ids may be revoked
    pre-emptively. Overrides any batch boundary. *)

val revoke_from : t -> id:int -> batch:int64 -> unit
(** Boundary revocation: bar batches with id [>= batch] while earlier
    batches keep verifying. Idempotent; replays only ever tighten the
    boundary (the minimum wins) and never loosen a total revocation. *)

val revocation : t -> int -> revocation
val is_revoked : t -> int -> bool
(** [true] only for total revocation. *)

val revoked : t -> int list
(** Ids with any revocation on record (total or boundary). *)

val allowed : t -> id:int -> batch:int64 -> Dsig_ed25519.Eddsa.verifying_key option
(** The verification-path gate: [id]'s active key, prepared at {!bind},
    or [None] if the id is unknown, totally revoked, [batch] falls at
    or past a revocation boundary, or the active key does not decode.
    Safe to call from any domain: the key is never built lazily. *)
