(** W-OTS+ one-time signatures (Hülsing, AFRICACRYPT 2013), DSig's
    recommended HBSS (§5.4: d = 4 with Haraka).

    Secrets are expanded from a 32-byte seed with BLAKE3 (§4.4 "speeding
    up key pair generation"); chaining uses mask vectors derived from a
    public seed, [c_{i+1} = H(c_i xor r_{i+1})]; the message is cut into
    base-d digits plus a base-d checksum. Signing with the chain cache
    enabled is pure string copying, as in the paper (§5.2).

    A W-OTS+ signature lets the verifier {e recover} the public key by
    completing the chains, so DSig signatures need not embed it
    (Figure 5): the recovered key is authenticated through its digest in
    the EdDSA-signed Merkle batch.

    Key generation, uncached signing and recovery share one chain
    kernel. With Haraka and n <= 32 (the deployed setting), it keeps the
    chain value in eight big-endian int words from the first step to the
    last, with the d-1 masks parsed into words once per call and the
    length tag of {!Dsig_hashes.Hash.digest}'s padding folded into them:
    a step is eight xors, one in-place {!Dsig_hashes.Haraka.haraka256_words}
    and a word-mask truncation, with no allocation. Recovered elements
    go straight into one buffer after the public seed, which BLAKE3
    hashes as the public-key digest. Other hashes and n > 32 step through
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
    values so [sign] does no hashing. [hash] defaults to [Haraka]. *)

val params : keypair -> Params.Wots.t
val public_seed : keypair -> string
val public_elements : keypair -> string array
val public_key_digest : keypair -> string
(** BLAKE3(public_seed || elements): the Merkle-batch leaf (§4.4). *)

val message_digest : Params.Wots.t -> public_seed:string -> nonce:string -> string -> string
(** The 16-byte digest actually signed: BLAKE3 of the message salted
    with the key pair's public seed and a nonce. (The paper salts with
    the public key itself (§4.3); the verifier must be able to compute
    the digest before recovering the key, so we salt with the per-key
    public seed, which gives the same multi-target protection.) *)

type signature = { nonce : string; elements : string }
(** [elements] holds the l revealed chain elements, n bytes each,
    concatenated in chain order: the signature's wire body after the
    nonce. *)

val sign : ?allow_reuse:bool -> keypair -> nonce:string -> string -> signature
(** [sign kp ~nonce msg]. One-time: a second call raises
    [Invalid_argument] unless [allow_reuse] (tests only). *)

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
