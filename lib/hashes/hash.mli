(** Uniform interface over the three hash functions the paper evaluates
    (SHA-256, BLAKE3, Haraka — §5.3, Figure 6), with arbitrary input and
    output lengths so the HBSS layer can swap them freely.

    Haraka is a fixed-width permutation-based hash (32- or 64-byte
    inputs), so [digest] wraps it in length-tagged padding and, for long
    inputs, a Merkle–Damgård-style fold; this mirrors how SPHINCS+ uses
    Haraka for its fixed-size tweakable hashing.

    {b Haraka collides across input lengths up to 64 bytes.} An input
    of n < 32 bytes is hashed as the 32-byte block of its bytes, zeros
    and n in byte 31 (likewise below 64), and a 32- or 64-byte input is
    hashed as it is, so every short input has a full-width twin with the
    same digest: a 31-byte [s] and the 32-byte [s ^ "\x1f"], or a
    63-byte input and its 64-byte extension by ['\x3f']. This
    is harmless for every in-tree caller, because each hashes values of
    one fixed length per call site: the W-OTS+ and HORS chains, Lamport
    and [Hors.recover_public_key_digest]. Do not use [digest Haraka] where
    inputs of different lengths must not collide. Changing the padding
    would change every chain byte, so it is left as it is
    (doc/SECURITY.md). *)

type algo = Sha256 | Blake3 | Haraka

val all : algo list
val to_string : algo -> string
val of_string : string -> algo
(** @raise Invalid_argument on unknown name. *)

val digest : algo -> ?length:int -> string -> string
(** [digest algo ?length msg] (default [length] 32). Output longer than
    the native digest is produced in counter mode; shorter output is a
    truncation. *)
