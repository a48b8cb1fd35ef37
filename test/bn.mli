(** Minimal arbitrary-precision natural numbers, the test suite's
    slow-but-obvious oracle: for the 10-limb field arithmetic
    ({!Dsig_ed25519.Fe25519}), the scalar arithmetic mod L, the
    reference Ed25519 in [Ref_ed25519], and the SHA-2 constant tables.
    Only naturals are supported; subtraction of a larger value raises. *)

type t

val zero : t
val one : t
val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int
(** @raise Failure if the value does not fit in an OCaml [int]. *)

val of_hex : string -> t
val to_hex : t -> string

val of_bytes_be : string -> t
val to_bytes_be : length:int -> t -> string
(** Big-endian, left-padded with zeros. @raise Invalid_argument if the
    value needs more than [length] bytes. *)

val of_bytes_le : string -> t
val to_bytes_le : length:int -> t -> string

val of_decimal : string -> t
val to_decimal : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. @raise Division_by_zero. *)

val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val bit : t -> int -> bool
val num_bits : t -> int

val mod_pow : t -> t -> t -> t
(** [mod_pow base exp m] is [base ^ exp mod m]. *)

val mod_inv : t -> t -> t
(** [mod_inv a m] is the inverse of [a] modulo a prime [m], computed as
    [a^(m-2) mod m]. @raise Invalid_argument if [a mod m = 0]. *)

val pp : Format.formatter -> t -> unit
