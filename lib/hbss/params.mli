(** Parameter mathematics for the hash-based signature schemes DSig
    considers (§5 of the paper): chain counts, key/signature sizes,
    hash-computation counts and security levels. These formulas generate
    the analytical comparison of Table 2; the test suite pins them to
    the paper's published values. *)

(** {1 W-OTS+} *)

module Wots : sig
  type t = {
    d : int;  (** chain depth: secrets are hashed d-1 times (paper §5.2) *)
    n : int;  (** element size in bytes; 18 (144 bits) per §4.3 *)
    msg_bits : int;  (** digest length signed; 128 per §4.3 *)
    l1 : int;  (** message chains *)
    l2 : int;  (** checksum chains *)
    l : int;  (** l1 + l2 *)
  }

  val make : ?n:int -> ?msg_bits:int -> d:int -> unit -> t
  (** @raise Invalid_argument unless [d] is a power of two >= 2. *)

  val keygen_hashes : t -> int
  (** l * (d-1): hashes to derive the public key from the secrets. *)

  val expected_verify_hashes : t -> float
  (** l * (d-1) / 2 in expectation over uniform digests. *)

  val signature_bytes : t -> int
  (** l * n: the revealed chain elements only. *)

  val security_bits : t -> float
  (** Generic-attack security level following Hülsing's bound:
      n_bits - log2(l * d) (second-preimage resistance loss). *)
end

(** {1 HORS} *)

module Hors : sig
  type t = {
    k : int;  (** secrets revealed per signature *)
    t : int;  (** total secrets in a key *)
    n : int;  (** element size in bytes; 16 (128 bits) *)
    log2_t : int;
    r : int;  (** signatures allowed per key (paper uses r = 1, §5.2) *)
  }

  val make : ?n:int -> ?security:int -> ?r:int -> k:int -> unit -> t
  (** Chooses the smallest power-of-two [t] with
      [k * (log2 t - log2 (r*k)) >= security] (default 128 bits, r = 1
      use per key as in §5.2 — the paper notes r >= 2 "presents no
      benefits" since key size grows with r; the r > 1 support here
      quantifies that trade-off). @raise Invalid_argument unless [k] and
      [r] are powers of two. *)

  val keygen_hashes : t -> int
  (** t: one hash per secret. *)

  val verify_hashes : t -> int
  (** k: hash each revealed secret. *)

  val signature_bytes : t -> int
  (** k * n revealed secrets. *)

  val public_key_bytes : t -> int
  val security_bits : t -> float
  (** k * (log2 t - log2 (r*k)): after [r] signatures an adversary knows
      at most [r*k] secrets; a forgery needs all k indices of a fresh
      message to land among them. *)
end

val is_pow2 : int -> bool
val log2_exact : int -> int
(** @raise Invalid_argument if not a power of two. *)
