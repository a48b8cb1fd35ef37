let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2_exact n =
  if not (is_pow2 n) then invalid_arg "Params.log2_exact: not a power of two";
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

module Wots = struct
  type t = { d : int; n : int; msg_bits : int; l1 : int; l2 : int; l : int }

  (* ceil(log_d (x + 1)) for the checksum chain count: smallest l2 with
     d^l2 > x. *)
  let checksum_chains d max_checksum =
    let rec go cap l2 = if cap > max_checksum then l2 else go (cap * d) (l2 + 1) in
    go 1 0

  let make ?(n = 18) ?(msg_bits = 128) ~d () =
    if not (is_pow2 d) || d < 2 then invalid_arg "Params.Wots.make: d must be a power of two >= 2";
    let bits_per_digit = log2_exact d in
    let l1 = (msg_bits + bits_per_digit - 1) / bits_per_digit in
    let l2 = checksum_chains d (l1 * (d - 1)) in
    { d; n; msg_bits; l1; l2; l = l1 + l2 }

  let keygen_hashes t = t.l * (t.d - 1)
  let expected_verify_hashes t = float_of_int (t.l * (t.d - 1)) /. 2.0
  let signature_bytes t = t.l * t.n

  (* Hülsing's W-OTS+ bound: n_bits - log2(l * d^2). For d=4, n=144:
     144 - log2(68*16) = 133.9, the figure quoted in §4.3. *)
  let security_bits t =
    float_of_int (8 * t.n) -. (log (float_of_int (t.l * t.d * t.d)) /. log 2.0)
end

module Hors = struct
  type t = { k : int; t : int; n : int; log2_t : int; r : int }

  let make ?(n = 16) ?(security = 128) ?(r = 1) ~k () =
    if not (is_pow2 k) then invalid_arg "Params.Hors.make: k must be a power of two";
    if not (is_pow2 r) then invalid_arg "Params.Hors.make: r must be a power of two";
    (* security after r uses = k * (log2 t - log2 (r*k)); pick the
       smallest power-of-two t meeting the target. *)
    let needed = (security + k - 1) / k in
    let log2_t = log2_exact k + log2_exact r + needed in
    { k; t = 1 lsl log2_t; n; log2_t; r }

  let keygen_hashes p = p.t
  let verify_hashes p = p.k
  let signature_bytes p = p.k * p.n
  let public_key_bytes p = p.t * p.n

  let security_bits p = float_of_int (p.k * (p.log2_t - log2_exact p.k - log2_exact p.r))
end
