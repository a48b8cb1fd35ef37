(** AES round function building blocks, used by {!Haraka}.

    The S-box and the fused T-table are generated from first principles
    (multiplicative inverse in GF(2^8) modulo x^8+x^4+x^3+x+1, followed
    by the affine transform), not transcribed, and the S-box is
    spot-checked in the test suite against published entries. There is
    one T-table, {!table}, built once at module init: {!round} and both
    Haraka kernels read it. *)

val sbox : int array
(** The 256-entry AES S-box. *)

val gf_mul : int -> int -> int
(** Multiplication in GF(2^8) mod 0x11b. *)

type state = int array
(** Four 32-bit column words; word [c] holds rows 0..3 of column [c] in
    its bytes from most to least significant. *)

val state_of_string : string -> int -> state
(** [state_of_string s off] loads 16 bytes at offset [off]; byte
    [off + 4*c + r] becomes row [r] of column [c] (FIPS 197 layout). *)

val string_of_state : state -> string

val get_word : string -> int -> int
(** [get_word s off] is the big-endian 32-bit word at [off], as a
    non-negative [int]: one column of {!state_of_string}. *)

val table : int array
(** The one fused SubBytes+ShiftRows+MixColumns T-table, 1024 words:
    entry [x] is the MixColumns column (2, 1, 1, 3) times [S(x)] as a
    big-endian word, and entry [256k + x] is that word rotated right by
    [8k] bits, for row [k]. {!round}, {!Haraka.haraka256_words} and
    {!Haraka.haraka512} all read this array; nothing may write it. *)

val round : int array -> int -> rk:int array -> int -> unit
(** [round st off ~rk rk_off] applies one AES round in place to the
    four column words [st.(off) .. st.(off + 3)]: SubBytes, ShiftRows and
    MixColumns through {!table}, then XOR with the round-key words
    [rk.(rk_off) .. rk.(rk_off + 3)]. It allocates nothing.
    @raise Invalid_argument if any of the eight words is outside
    [0 .. 2^32-1]; [st] is then left unchanged. *)

val round_naive : state -> rc:string -> state
(** Reference implementation applying the four steps separately, with
    the 16-byte round constant [rc]; used by the test suite to validate
    [round]. *)
