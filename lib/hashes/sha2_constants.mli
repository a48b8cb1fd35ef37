(** SHA-2 round constants and initial hash values: the fractional parts
    of cube/square roots of the first primes (FIPS 180-4 §4.2.2–4.2.3
    and §5.3), as literal tables. The test suite recomputes each table
    from the primes with a bignum oracle, and the "abc" known-answer
    tests check them end to end. *)

val k256 : int array
(** 64 constants, each a 32-bit value in an OCaml [int]. *)

val h256 : int array
(** 8 initial values (32-bit). Also the BLAKE3 IV. *)

val k512 : int64 array
(** 80 constants. *)

val h512 : int64 array
(** 8 initial values. *)
