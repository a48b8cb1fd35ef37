(** Edwards25519 group operations in extended homogeneous coordinates
    (X : Y : Z : T), x = X/Z, y = Y/Z, x·y = T/Z (RFC 8032 §5.1.4).

    Addition uses the unified add-2008-hwcd-3 law against a prepared
    addend (Y+X, Y-X, 2Z, 2dT); it is complete on this curve (d is a
    non-square), so it also adds a point to itself. Doubling is the
    dedicated dbl-2008-hwcd. Scalar multiplication is signed-window
    (wNAF) Straus: one shared doubling chain, width-5 digits against a
    table of odd multiples P, 3P, ..., 15P of each point, and width-8
    digits against B, 3B, ..., 127B. The chain is as long as the longest
    scalar. A scalar k against a point whose [[2^128]]-multiple is also
    tabled splits as k_lo + 2^128·k_hi into two 128-bit terms, so the
    chain drops from up to 256 doublings to 128. B and [[2^128]]B are
    always tabled: two 64-entry tables (≈ 50 KiB) built at module
    initialisation, so [[s]]B costs 128 doublings. A {!prepared} point
    carries both of its own 8-entry tables (≈ 6 KiB), so
    {!prepared_mul} runs the 128-step chain too; a point used once gets
    a per-call table and the full chain. One Straus loop serves every
    entry point. All operations are variable-time — this reproduction targets
    functional fidelity and benchmarking, not side-channel resistance
    (noted in DESIGN.md).

    Scalars are 32-byte little-endian strings, any value below 2^256. *)

type t

val identity : t
val base : t
(** The standard base point B (y = 4/5, x even). *)

val add : t -> t -> t
val double : t -> t
val negate : t -> t

val scalar_mul : string -> t -> t
(** [scalar_mul k p] is [k]p. *)

val base_mul : string -> t
(** [base_mul k] is [k]B, using the precomputed tables of B and
    [[2^128]]B: a 128-step chain. *)

val multi_scalar_mul : ?base:string -> (string * t) list -> t
(** [multi_scalar_mul ~base:s [(k1,p1); ...]] is [s]B + [k1]p1 + ...
    with a single shared doubling chain, the workhorse of one-shot and
    batch signature verification. Without [~base] the B term is
    absent. *)

type prepared
(** A point with its tables of odd multiples and those of its
    [[2^128]]-multiple, for repeated multiplication. *)

val prepare : t -> prepared
(** 128 doublings and two 8-entry tables: about half the cost of one
    {!scalar_mul}. *)

val prepared_mul : base:string -> string -> prepared -> t
(** [prepared_mul ~base:s k p] is [s]B + [k]P for [p = prepare P], over
    a 128-step chain. Equal, as a group element, to
    [multi_scalar_mul ~base:s [(k, P)]] for every P, torsion included. *)

val compress : t -> string
(** 32-byte encoding: little-endian y with the sign of x in bit 255. *)

val decompress : string -> t option
(** Point decoding per RFC 8032 §5.1.3; [None] if the encoding is not a
    curve point. A y >= p is read as y - p (the encoding is not
    required to be canonical). *)

val equal : t -> t -> bool
(** Group-element equality, X1·Z2 = X2·Z1 and Y1·Z2 = Y2·Z1. *)

val on_curve : t -> bool
(** Checks -x² + y² = 1 + d·x²·y² (for tests). *)

val d : Fe25519.t
(** The curve constant -121665/121666. *)
