(** Haraka-style short-input hash (Kölbl, Lauridsen, Mendel, Rechberger,
    "Haraka v2", ToSC 2016).

    Structure per the paper: 5 rounds, each applying two AES rounds to
    every 128-bit lane followed by a cross-lane word mix; a feed-forward
    XOR of the input; truncation to 256 bits. DSig uses it as the W-OTS+
    chain/keygen hash because its cost is a handful of AES rounds (§4.3).

    {b Substitution note (see DESIGN.md §1):} the official round
    constants are digits of π and the official MIX is expressed as SSSE3
    unpack instructions; neither is available to us offline in verified
    form. We derive round constants as [SHA-256("haraka-rc" || i)] and
    use an explicit unpacklo/unpackhi word shuffle. Outputs are therefore
    {e not interoperable} with the reference implementation, but the
    construction (AES-round permutation + feed-forward) and its security
    argument and cost profile are unchanged.

    Round constants are parsed into round-key words once, at module
    init, and every AES round reads the one fused T-table
    {!Aes_core.table}. {!haraka256_words}, the kernel a W-OTS+ chain
    step runs, keeps its eight state words in local variables for all 20
    AES rounds, does the unpack mix as assignments between them, and
    writes the caller's array only for the feed-forward: it allocates
    nothing. {!haraka256} wraps it for strings. {!haraka512}
    runs {!Aes_core.round} on one int array per call. No output byte
    differs from the string-round definition: the test suite checks both
    functions against known answers and, differentially, against a
    reference built on {!Aes_core.round_naive}. *)

val haraka256 : ?length:int -> string -> string
(** [haraka256 x] maps a 32-byte input to a 32-byte output; [length]
    (at most 32) keeps only that many leading output bytes.
    @raise Invalid_argument on wrong input size or [length]. *)

val haraka256_words : int array -> unit
(** [haraka256_words s] replaces the eight big-endian 32-bit words
    [s.(0) .. s.(7)] (byte 4i is the high byte of [s.(i)]) with their
    32-byte Haraka-256 digest, in place and with no allocation. Words
    after the eighth are left alone.

    Precondition: each of [s.(0) .. s.(7)] is in [0 .. 2^32-1]. The
    words index the T-table, so the kernel checks them on entry; the
    digest words it writes are in range again.
    @raise Invalid_argument if [s] has fewer than 8 words or one of the
    first eight is outside [0 .. 2^32-1]; [s] is then left unchanged. *)

val haraka512 : ?length:int -> string -> string
(** [haraka512 x] maps a 64-byte input to a 32-byte output; [length] as
    for {!haraka256}. *)

val round_constants : string array
(** The 40 derived 16-byte round constants (exposed for tests). *)
