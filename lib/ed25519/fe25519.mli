(** Field arithmetic modulo p = 2^255 - 19.

    Elements are ten signed limbs in radix 2^25.5 (alternating 26/25
    bits), the classic ref10 representation. [mul], [sq] and [of_bytes]
    end in one carry chain, which leaves every limb within about 2^25
    (even) or 2^24 (odd): call that magnitude 1. [add], [sub] and [neg]
    do not carry, so their outputs have the summed magnitudes of their
    inputs. [mul] and [sq] stay within OCaml's 63-bit integers as long as
    the product of their inputs' magnitudes is at most 32; the point
    formulas reach at most 12 (3 × 4 in a doubling). The test suite
    cross-checks every operation against a bignum oracle ([test/bn.ml]), and
    [mul]/[sq] at the largest magnitudes the point formulas produce. *)

type t

val zero : t
val one : t
val of_int : int -> t
(** Small constants, [0 <= x < 2^25]. *)

val of_limbs : int array -> t
(** The value [sum l.(i) * 2^(ceil (25.5 i))] of ten raw limbs, taken
    as they are (no carry). For tests that drive [mul] and [sq] at the
    limb bounds. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val sq : t -> t

val inv : t -> t
(** Multiplicative inverse, [z^(p-2)] by ref10's fixed addition chain
    (254 squarings, 11 multiplications). The inverse of zero is zero. *)

val pow22523 : t -> t
(** [z^((p-5)/8)], the exponentiation in square-root extraction, by
    the same chain. *)

val of_bytes : string -> t
(** Little-endian 32 bytes; the top bit (bit 255) is ignored, and a
    value y >= p stands for y - p, matching RFC 8032 field-element
    decoding. *)

val to_bytes : t -> string
(** Canonical little-endian 32-byte encoding (value fully reduced). *)

val equal : t -> t -> bool
(** Equality of field values. *)

val is_zero : t -> bool
val is_negative : t -> bool
(** Sign convention of RFC 8032: the least significant bit of the
    canonical encoding. *)
