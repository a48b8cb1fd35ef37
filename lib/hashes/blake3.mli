(** BLAKE3 (O'Connor, Aumasson, Neves, Wilcox-O'Hearn).

    Full chunk/tree structure per the specification, including the
    extendable-output function (XOF) and keyed hashing. DSig uses BLAKE3
    for message digests, key expansion, and Merkle-tree hashing (§4.3,
    §4.4 of the paper).

    Each hash call allocates one work array and its output, nothing per
    block. The compression runs on sixteen local variables over the
    seven rounds, with the eight G calls written out in the round body
    and the message words taken through a precomputed permutation
    schedule. Message words are read with one little-endian load each,
    and output is written by words. Unrolling the seven rounds too makes
    the kernel more than twice as large for little gain here, and it
    slowed the idle-gapped foreground signing of the benchmark, which
    finds a cold instruction cache after each gap (DESIGN.md §2). The
    test suite checks every mode against known answers and against a
    per-round reference. *)

val digest_size : int
(** Default output length, 32 bytes. *)

val digest : ?length:int -> string -> string
(** [digest ?length msg] hashes [msg]; [length] selects the XOF output
    size (default 32 bytes). *)

val digest_into :
  ?length:int -> bytes -> off:int -> len:int -> bytes -> dst_off:int -> unit
(** [digest_into src ~off ~len dst ~dst_off] writes the [length]-byte
    (default 32) digest of [len] bytes of [src] at [off] into [dst] at
    [dst_off], with no output string. The whole input is read before any
    output byte is written, so the two ranges may overlap.
    @raise Invalid_argument if either range is out of bounds. *)

val keyed : key:string -> ?length:int -> string -> string
(** Keyed hashing mode; [key] must be exactly 32 bytes. *)

val derive_key : context:string -> ?length:int -> string -> string
(** Key-derivation mode: [context] is a hardcodable context string,
    the argument is the input key material. *)

val hex : string -> string

(** Incremental (streaming) hashing: feed input in arbitrary pieces,
    finalize once; agrees exactly with the one-shot functions. *)
module Incremental : sig
  type t

  val create : ?key:string -> unit -> t
  (** Plain hashing, or keyed mode with a 32-byte [key]. *)

  val feed : t -> string -> unit
  val finalize : ?length:int -> t -> string
  (** May be called once. *)
end
