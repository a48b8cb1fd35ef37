(** W-OTS+ one-time signatures (Hülsing, AFRICACRYPT 2013), DSig's
    recommended HBSS (§5.4: d = 4 with Haraka).

    Secrets are expanded from a 32-byte seed with BLAKE3 (§4.4 "speeding
    up key pair generation"); chaining uses mask vectors derived from a
    public seed, [c_{i+1} = H(c_i xor r_{i+1})]; the message is cut into
    base-d digits plus a base-d checksum. Signing with the chain cache
    enabled is pure string copying, as in the paper (§5.2), and
    {!sign_into} copies straight into the caller's buffer (the signer
    writes a DSig signature's elements in place, between its wire
    prefix and suffix).

    A W-OTS+ signature lets the verifier {e recover} the public key by
    completing the chains, so DSig signatures need not embed it
    (Figure 5): the recovered key is authenticated through its digest in
    the EdDSA-signed Merkle batch.

    Key generation, uncached signing and recovery share one chain
    kernel. With Haraka and n <= 32 (the deployed setting), it keeps the
    chain value in eight big-endian int words from the first step to the
    last, with the d-1 masks parsed into words once per call and the
    length tag of {!Dsig_hashes.Hash.digest}'s padding folded into them:
    a step is eight xors, one {!Dsig_hashes.Haraka.haraka256_words} (20
    AES rounds on eight local words, written back once) and a word-mask
    truncation, with no allocation. Every word the walker builds is
    below 2^32, as that kernel requires. Recovered elements go straight
    into one buffer after the public seed, which BLAKE3 hashes as the
    public-key digest. Other hashes and n > 32 step through
    {!Dsig_hashes.Hash.digest} on strings. Every output byte equals that
    of the plain per-step definition; the test suite checks keygen,
    signing and recovery against it for n in {16, 18, 31, 32}. *)

type keypair

val generate :
  ?hash:Dsig_hashes.Hash.algo ->
  ?cache_chains:bool ->
  Params.Wots.t ->
  seed:string ->
  keypair
(** [generate params ~seed] derives a key pair deterministically from a
    32-byte seed. [cache_chains] (default [true]) precomputes all chain
    values so [sign] does no hashing. [hash] defaults to [Haraka].

    A key pair holds its public seed, its public-key digest (computed
    once, here) and one copy of its chain material: with [cache_chains]
    the l·d·n bytes of chains, whose first column is the secrets and
    whose last is the public elements; without it the l·n bytes of
    secrets alone. The public key itself is not kept. *)

val params : keypair -> Params.Wots.t
val public_seed : keypair -> string

val public_elements : keypair -> string array
(** The l chain ends: read from the cached chains, or walked again from
    the secrets (a key generation's worth of chain steps) when chains
    are not cached. *)

val public_key_digest : keypair -> string
(** BLAKE3(public_seed || elements): the Merkle-batch leaf (§4.4). *)

type signature = { nonce : string; elements : string }
(** [elements] holds the l revealed chain elements, n bytes each,
    concatenated in chain order: the signature's wire body after the
    nonce. *)

val sign : ?allow_reuse:bool -> keypair -> nonce:string -> string -> signature
(** [sign kp ~nonce msg]: {!sign_into} a fresh l·n-byte buffer. One-time:
    a second call raises [Invalid_argument] unless [allow_reuse] (tests
    only), as does a nonce that is not 16 bytes. *)

val sign_into :
  ?allow_reuse:bool -> keypair -> nonce:string -> nonce_off:int -> string -> bytes -> int -> unit
(** [sign_into kp ~nonce ~nonce_off msg dst off] writes the l revealed
    chain elements for [msg], n bytes each in chain order, to [dst] at
    [off]: the same bytes as [(sign kp ~nonce:(String.sub nonce
    nonce_off 16) msg).elements]. The nonce is the 16 bytes of [nonce]
    at [nonce_off], so it may be read in place from a signature's wire
    prefix.

    The digest signed is BLAKE3 of the message salted with the key
    pair's public seed and the nonce. (The paper salts with the public
    key itself (§4.3); the verifier must be able to compute the digest
    before recovering the key, so we salt with the per-key public seed,
    which gives the same multi-target protection.) It is taken in one
    scratch buffer and its digits are read by shifts as the elements
    are written; with cached chains, signing is then l blits of n
    bytes.
    @raise Invalid_argument if the key was used (unless [allow_reuse]),
    the nonce range is out of bounds, or [dst] has fewer than l·n bytes
    at [off]. The key is marked used only when signing proceeds. *)

val recover_public_elements :
  ?hash:Dsig_hashes.Hash.algo ->
  Params.Wots.t ->
  public_seed:string ->
  signature ->
  string ->
  string array
(** Complete the chains for message [msg]; if the signature is genuine
    the result equals the signer's public elements.
    @raise Invalid_argument unless the public seed is 32 bytes, the nonce
    16 bytes and the elements l * n bytes. *)

val recover_public_key_digest :
  ?hash:Dsig_hashes.Hash.algo ->
  Params.Wots.t ->
  public_seed:string ->
  signature ->
  string ->
  string
(** BLAKE3(public_seed || recovered elements), raising as
    {!recover_public_elements} does. *)

val verify :
  ?hash:Dsig_hashes.Hash.algo ->
  Params.Wots.t ->
  public_seed:string ->
  pk_digest:string ->
  signature ->
  string ->
  bool
(** Recover-and-compare against the expected public-key digest; [false]
    on wrong input lengths. *)

val signature_wire_bytes : Params.Wots.t -> int
(** nonce (16) + l*n elements. *)
