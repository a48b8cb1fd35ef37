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
(** The codec's encoder, and the reference for the signer's assembly
    below: the test suite checks that every signature the signer builds
    equals [encode] of the record it stands for, byte for byte. The
    signer itself does not call it. *)

val decode : Config.t -> string -> (t, string) result
(** Rejects signatures whose header does not match [Config.t]. *)

val size_bytes : Config.t -> int
(** Exact wire size for fixed-size schemes (W-OTS+, merklified HORS);
    for factorized HORS, the size assuming all k indices are distinct
    (the common case and the paper's accounting). *)

val nonce_bytes : int
(** 16. *)

(** {1 The signer's assembly}

    Every scheme's wire form is a message-independent {e prefix}
    (header, public seed, nonce), a body that depends on the message,
    and a message-independent {e suffix} (batch proof, root signature).
    The background plane writes these bytes at seal time: once per
    batch the header and root signature ({!batch_bytes}), once per key
    the public seed, nonce and batch proof ({!key_bytes}). {!sign}
    allocates the signature once and writes only the body. *)

val batch_bytes : Config.t -> signer_id:int -> batch_id:int64 -> root_sig:string -> string
(** A batch's header (20 bytes) and EdDSA root signature (64).
    @raise Invalid_argument unless the root signature is 64 bytes. *)

val key_bytes :
  Config.t -> public_seed:string -> nonce:string -> batch_proof:Dsig_merkle.Merkle.proof -> string
(** A key's public seed, nonce and encoded batch proof (276 bytes for
    the recommended configuration). Holds no reference to the proof's
    tree.
    @raise Invalid_argument on a seed, nonce or proof of the wrong
    size. *)

val batch_id_of_bytes : string -> int64
(** The batch id in {!batch_bytes}. *)

val key_index_of_bytes : string -> int
(** The key's batch index: the leaf index of the proof in {!key_bytes}. *)

val sign : batch:string -> key:string -> Onetime.t -> string -> string
(** [sign ~batch ~key k msg] signs [msg] with the one-time key [k] and
    returns the DSig signature: [batch] and [key] (the {!batch_bytes}
    and {!key_bytes} written for [k] at seal time) around the body. The
    nonce is read from [key]. W-OTS+ writes its chain elements straight
    into the signature ({!Dsig_hbss.Wots.sign_into}); HORS bodies are
    built, then copied in. Equals {!encode} of the record the key and
    message stand for.
    @raise Invalid_argument if [k] was already used. *)
