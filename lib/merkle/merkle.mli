(** Merkle trees over BLAKE3, as used by DSig to
    batch HBSS public keys under one EdDSA signature (§4.4) and to
    "merklify" HORS public keys (§5.2).

    Leaves are arbitrary strings; they are hashed with a [0x00] domain
    tag, interior nodes with [0x01], preventing leaf/node confusion.
    Trees of non-power-of-two size are padded with a fixed all-zero
    digest. A path fold hashes each node in one 65-byte scratch buffer,
    writing the parent's digest back into it, so it builds no
    concatenated strings. *)

type t

type tree = t
(** Alias used by {!Multiproof}. *)

val build : string array -> t
(** [build leaves] constructs the tree.
    @raise Invalid_argument on an empty leaf array. *)

val root : t -> string
val size : t -> int
(** Number of leaves. *)

val leaf_digest : t -> int -> string

type proof = { index : int; siblings : string list }
(** Bottom-up sibling digests; the side of each sibling is recovered
    from the bits of [index]. *)

val proof : t -> int -> proof
(** @raise Invalid_argument if the index is out of range. *)

val proof_size_bytes : leaves:int -> int
(** Wire size of a proof for a tree of the given leaf count:
    ceil(log2 leaves) siblings of 32 bytes. *)

val compute_root : leaf:string -> proof -> string
(** The root implied by a leaf and its proof (used by verifiers that
    look the root up in a cache of pre-verified roots rather than
    comparing against a value carried in the signature).
    @raise Invalid_argument if a sibling is not 32 bytes. *)

val verify : root:string -> leaf:string -> proof -> bool
(** Recomputes the path and compares with [root]; [false] if a sibling
    is not 32 bytes. *)

val encode_proof : proof -> string
val decode_proof : levels:int -> string -> proof option
(** Fixed-size wire encoding: 4-byte little-endian index followed by
    [levels] 32-byte siblings. *)

val read_proof : levels:int -> string -> int -> proof option
(** [read_proof ~levels s off] decodes a proof that starts at byte [off]
    of [s] and may be followed by other bytes, without copying the
    encoding out first. *)

(** {1 Multiproofs}

    A compressed inclusion proof for several leaves of the same tree:
    sibling digests shared between the individual paths are carried
    once. For HORS-merklified signatures (k proofs into one forest) this
    trims the dominant signature component — quantified in the ablation
    bench. *)

module Multiproof : sig
  type t

  val create : (* tree *) tree -> int list -> t
  (** Proof for the given (distinct) leaf indices.
      @raise Invalid_argument on out-of-range or duplicate indices. *)

  val verify : root:string -> leaves:(int * string) list -> t -> bool
  (** [leaves] are [(index, content)] pairs for exactly the indices the
      proof was created for. *)

  val size_bytes : t -> int
  (** Wire-size accounting: 32 B per carried digest plus bookkeeping. *)

  val naive_size_bytes : tree -> int list -> int
  (** Total size of the equivalent independent proofs, for comparison. *)

  val indices : t -> int list
  val encode : t -> string
  val decode : string -> (t * string) option
  (** [decode s] parses a multiproof from the front of [s], returning the
      remainder; [None] on malformed input. *)
end

module Forest : sig
  (** A forest of [2^k] equal Merkle trees over one leaf array — the
      HORS "merklified public key" layout: smaller trees mean shorter
      per-secret inclusion proofs at the cost of more roots. *)

  type forest

  val build : trees:int -> string array -> forest
  (** [trees] must divide the leaf count. *)

  val roots : forest -> string list

  val roots_digest : forest -> string
  (** BLAKE3 of the concatenated roots — the value DSig EdDSA-signs. *)

  val tree : forest -> int -> tree
  (** The [i]-th tree of the forest (for multiproof construction). *)

  val proof : forest -> int -> int * proof
  (** [proof f i] is [(tree_index, proof within that tree)] for global
      leaf [i]. *)

  val verify : roots:string list -> leaf:string -> int * proof -> bool
end
