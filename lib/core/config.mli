(** DSig configuration: the HBSS and its parameters, the hash function,
    and the system knobs of §4 (EdDSA batch size, key-queue threshold S,
    verifier cache size) with the paper's recommended defaults (§5.4,
    §8 "DSig configuration"). *)

type hbss =
  | Wots of Dsig_hbss.Params.Wots.t
      (** recover-the-public-key verification; recommended (§5.4) *)
  | Hors_factorized of Dsig_hbss.Params.Hors.t
      (** signature embeds the non-deducible public-key elements *)
  | Hors_merklified of { params : Dsig_hbss.Params.Hors.t; trees : int }
      (** signature embeds forest roots and per-secret inclusion proofs *)

type t = {
  hbss : hbss;
  hash : Dsig_hashes.Hash.algo;  (** HBSS chain/element hash *)
  batch_size : int;  (** HBSS public keys per EdDSA signature (default 128, §8.7) *)
  queue_threshold : int;  (** S: refill a group's key queue below this (default 512) *)
  cache_batches : int;
      (** verified batches a verifier retains per signer (default
          2*S/batch = 8, i.e. the paper's 2*S = 1024 keys) *)
  eddsa_verify_cache : bool;  (** cache foreground EdDSA verifications (§4.4) *)
}

val default : t
(** W-OTS+ d = 4 over Haraka, batch 128, S = 512 — the recommended
    configuration (§5.4). *)

val make :
  ?hash:Dsig_hashes.Hash.algo ->
  ?batch_size:int ->
  ?queue_threshold:int ->
  ?cache_batches:int ->
  ?eddsa_verify_cache:bool ->
  hbss ->
  t
(** @raise Invalid_argument if [batch_size] is not a positive power of
    two or thresholds are non-positive. *)

val wots : d:int -> hbss
val hors_factorized : k:int -> hbss
val hors_merklified : ?trees:int -> k:int -> unit -> hbss

val scheme_tag : t -> int
(** Wire tag: 1 = W-OTS+, 2 = HORS factorized, 3 = HORS merklified. *)

val hash_tag : t -> int
val batch_levels : t -> int
(** log2 of the batch size: Merkle proof length in the signature. *)

val describe : t -> string

val fingerprint : t -> string
(** Short stable digest (hex) of everything {!describe} prints; the
    durable key store records it so a journal is never resumed under a
    different scheme ({!Dsig_store.Keystate}). *)
