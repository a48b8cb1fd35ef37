(** Arithmetic modulo the group order
    L = 2^252 + 27742317777372353535851937790883648493.

    Scalars are 32-byte little-endian strings. Reduction and [muladd]
    run on 21-bit native-integer limbs (ref10's [sc_reduce] and
    [sc_muladd]); no bignum division is involved. *)

val l : string
(** L itself, 32 bytes little-endian. *)

val zero : string
val one : string

val reduce_bytes : string -> string
(** Interpret a little-endian byte string of at most 64 bytes (RFC 8032
    uses exactly 64) and reduce it modulo L. *)

val of_bytes_checked : string -> string option
(** [Some s] if [s] is 32 bytes encoding a value below L, else [None]
    (the S-range check of RFC 8032 §5.1.7). *)

val muladd : string -> string -> string -> string
(** [muladd k a r] is [(k*a + r) mod L] for any three 32-byte values
    (they need not be reduced: the clamped secret scalar is not). *)
