(** Byte-level encoding of DSig signatures (Figures 4 and 5).

    A signature is self-standing (§4.1): it carries everything needed to
    verify with only the signer's EdDSA public key — the HBSS signature,
    the per-key public seed, whatever of the HBSS public key cannot be
    recovered from the signature itself, the Merkle inclusion proof of
    the key's digest in its EdDSA batch, and the EdDSA signature of the
    batch root.

    Wire layout (sizes for the recommended W-OTS+ d=4, batch=128
    configuration — 1,584 bytes total, matching Table 1):

    {v
    magic/version/scheme/hash        4
    signer id                        8
    batch id                         8
    public seed                     32
    nonce                           16
    W-OTS+ elements (68 x 18)    1,224
    batch Merkle proof (4+7x32)    228
    EdDSA root signature            64
    v} *)

type body =
  | Wots_body of Dsig_hbss.Wots.signature
  | Hors_fact_body of {
      hsig : Dsig_hbss.Hors.signature;
      complement : string array;
          (** public elements at the indices the message does not
              select, in ascending index order *)
    }
  | Hors_merk_body of {
      hsig : Dsig_hbss.Hors.signature;
      roots : string array;
      proofs : (int * Dsig_merkle.Merkle.proof) array;
    }

type t = {
  signer_id : int;
  batch_id : int64;
  public_seed : string;
  body : body;
  batch_proof : Dsig_merkle.Merkle.proof;
  root_sig : string;
}

val key_index : t -> int
(** Index of the one-time key within its batch (the Merkle leaf index). *)

val peek_header : string -> (int * int64) option
(** [(signer_id, batch_id)] without decoding the body — the cheap parse
    behind [can_verify_fast]. *)

val peek_trace : Config.t -> string -> (int * int64 * int) option
(** [(signer_id, batch_id, key_index)] without decoding the body: the
    triple {!Dsig_telemetry.Trace_ctx.id} packs into a signature's trace
    id. The key index is read from the batch proof, which sits at a
    fixed tail offset for a given [Config.t]. [None] on truncated input
    (the index is {e not} authenticated here — use only for telemetry). *)

val encode : Config.t -> t -> string
val decode : Config.t -> string -> (t, string) result
(** Rejects signatures whose header does not match [Config.t]. *)

val size_bytes : Config.t -> int
(** Exact wire size for fixed-size schemes (W-OTS+, merklified HORS);
    for factorized HORS, the size assuming all k indices are distinct
    (the common case and the paper's accounting). *)
