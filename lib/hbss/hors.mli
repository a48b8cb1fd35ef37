(** HORS few-time signatures (Reyzin & Reyzin, ACISP 2002), with r = 1
    use per key as in the paper (§5.2).

    Signing reveals the [k] secrets indexed by the message digest.
    Unlike W-OTS+, a HORS signature does not let the verifier recover
    the full public key, so DSig embeds it in one of two forms
    (Figure 4), both supported here through {!Dsig.Wire}:

    - {b factorized}: the signature carries the t-k public elements not
      deducible from the revealed secrets;
    - {b merklified}: public elements form a Merkle forest and the
      signature carries per-secret inclusion proofs. *)

type keypair

val generate : ?hash:Dsig_hashes.Hash.algo -> Params.Hors.t -> seed:string -> keypair
val params : keypair -> Params.Hors.t
val public_elements : keypair -> string array
(** The [t] hashed secrets. *)

val public_key_digest : keypair -> string
val public_seed : keypair -> string

val forest : ?trees:int -> keypair -> Dsig_merkle.Merkle.Forest.forest
(** The merklified public key (default 8 trees, chosen in §5.2 to match
    Table 2's proof sizes). Computed on demand and cached. *)

val message_indices : Params.Hors.t -> public_seed:string -> nonce:string -> string -> int array
(** The k secret indices selected by a message (duplicates possible, as
    in plain HORS; security analysis accounts for them). *)

type signature = { nonce : string; revealed : string array }

val sign : ?allow_reuse:bool -> keypair -> nonce:string -> string -> signature
(** At most [r] times per key (the configured few-time budget;
    [Invalid_argument] beyond it unless [allow_reuse]). *)

val verify_with_elements :
  ?hash:Dsig_hashes.Hash.algo ->
  Params.Hors.t ->
  public_seed:string ->
  elements:string array ->
  signature ->
  string ->
  bool
(** Verification against the full public key (factorized path: the
    verifier reassembles [elements] from cache or signature). *)

val deduced_elements :
  ?hash:Dsig_hashes.Hash.algo ->
  Params.Hors.t ->
  public_seed:string ->
  signature ->
  string ->
  (int * string) array
(** [(index, hashed secret)] pairs deducible from a signature — the
    elements the factorized encoding omits. *)

val complement : keypair -> signature -> string -> string array
(** The factorized encoding's complement for [signature] on a message:
    the public elements at the indices the message does not select, in
    index order. *)

val recover_public_key_digest :
  ?hash:Dsig_hashes.Hash.algo ->
  Params.Hors.t ->
  public_seed:string ->
  signature ->
  complement:string array ->
  string ->
  string option
(** The factorized verifier's side of {!complement}: the deduced
    elements plus [complement] make the full key, whose digest equals
    {!public_key_digest} if the signature is genuine. [None] when the
    signature is malformed, two revealed secrets on one index hash
    differently, or [complement] does not fill exactly the indices the
    message leaves open. *)

val verify_with_forest :
  ?hash:Dsig_hashes.Hash.algo ->
  Params.Hors.t ->
  public_seed:string ->
  roots:string list ->
  proofs:(int * Dsig_merkle.Merkle.proof) array ->
  signature ->
  string ->
  bool
(** Merklified verification: each revealed secret's hash is checked
    against the signed forest roots through its inclusion proof. *)
