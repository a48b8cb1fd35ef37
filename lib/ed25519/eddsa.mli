(** Ed25519 signatures (RFC 8032), the "traditional signature scheme" of
    DSig's hybrid construction (the paper's Dalek/Sodium baselines both
    implement this exact scheme).

    Validated against RFC 8032 §7.1 test vectors in the test suite. *)

type secret_key
(** The 32-byte seed together with its expanded scalar and prefix. *)

type public_key = string
(** 32-byte compressed point. *)

val public_key_size : int
val signature_size : int
(** 64 bytes. *)

val secret_of_seed : string -> secret_key
(** [secret_of_seed seed] expands a 32-byte seed. *)

val seed_of_secret : secret_key -> string
val public_key : secret_key -> public_key

val generate : Dsig_util.Rng.t -> secret_key * public_key

val sign : secret_key -> string -> string
(** [sign sk msg] is the 64-byte signature R || S. *)

val verify : public_key -> string -> string -> bool
(** [verify pk msg sig] checks the cofactorless equation [S]B = R + [k]A
    (as R = [S]B + [k](-A), one shared-doubling pass). Rejects S >= L
    and encodings that are not curve points; an encoded y >= p is read
    as y - p. *)

type verifying_key
(** A public key prepared once for many verifications: its original 32
    bytes and two width-5 tables, odd multiples of -A and of
    -[[2^128]]A (16 cached points, ≈ 6 KiB). *)

val verifying_key : public_key -> verifying_key option
(** [None] if the key is not 32 bytes or not a curve point; a key
    rejected here rejects every signature under {!verify} too. Costs
    about half of one {!verify}. *)

val verifying_key_bytes : verifying_key -> public_key
(** The bytes the key was made from, as given (k hashes these). *)

val verify_with : verifying_key -> string -> string -> bool
(** [verify_with vk msg sig] is [verify pk msg sig] for
    [verifying_key pk = Some vk], bit for bit on every input: the same
    cofactorless equation, with both scalars split at bit 128 so the
    doubling chain is 128 steps instead of 253. Use it for a key that
    checks many signatures; {!verify} stays the one-shot path. *)

val verify_batch : Dsig_util.Rng.t -> (public_key * string * string) list -> bool
(** Randomized batch verification (Bernstein et al.): checks
    [sum(z_i*S_i)]B = sum([z_i]R_i) + sum([z_i*k_i]A_i) for random
    128-bit [z_i], amortizing the fixed-base scalar multiplication. A
    [true] answer is correct except with probability ~2^-128; on [false]
    at least one signature is invalid (callers then bisect or fall back
    to individual verification). The empty batch is [true]. *)
