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

    The kernels keep the whole state in one int array per call: round
    constants are parsed into words once, AES rounds and the unpack mix
    run in place, and feed-forward and truncation write one output
    buffer. This layout changes no output byte: the test suite checks
    both functions against known answers and, differentially, against a
    string-round reference built on {!Aes_core.round_naive}. *)

val haraka256 : ?length:int -> string -> string
(** [haraka256 x] maps a 32-byte input to a 32-byte output; [length]
    (at most 32) keeps only that many leading output bytes.
    @raise Invalid_argument on wrong input size or [length]. *)

val haraka512 : ?length:int -> string -> string
(** [haraka512 x] maps a 64-byte input to a 32-byte output; [length] as
    for {!haraka256}. *)

val round_constants : string array
(** The 40 derived 16-byte round constants (exposed for tests). *)
