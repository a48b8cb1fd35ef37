(* Reference copy of the Ed25519 implementation in its earlier, plainly
   specified form, kept for differential testing:

   - Fe25519: ten radix-2^25.5 limbs carried after every operation,
     inversion and square roots by square-and-multiply over Bn exponents;
   - Point: unified addition only (doubling is add p p), double-and-add
     scalar multiplication, a 4-bit fixed-base window table, bit-serial
     Straus, equality by comparing compressed encodings;
   - Scalar: Bn values reduced with Bn.rem;
   - Eddsa: [S]B = R + [k]A checked with two separate multiplications.

   test_ed25519 checks the library against these verdict for verdict and
   byte for byte. Nothing here is tuned. *)

open Dsig_hashes

module Fe25519 = struct
  type t = int array (* 10 limbs, signed, radix 2^25.5 *)

  let p = Bn.sub (Bn.shift_left Bn.one 255) (Bn.of_int 19)

  (* Bit width of limb [i] (even limbs 26 bits, odd 25) and its bit
     position in the 255-bit value. *)
  let limb_bits i = if i land 1 = 0 then 26 else 25
  let limb_pos = [| 0; 26; 51; 77; 102; 128; 153; 179; 204; 230 |]

  let zero : t = Array.make 10 0
  let one : t = Array.init 10 (fun i -> if i = 0 then 1 else 0)

  (* Carry chain. Two full passes bring any limb configuration produced by
     a single mul/add back to |even limb| <= 2^25, |odd limb| <= 2^24
     (plus epsilon), keeping subsequent products within 63-bit ints. *)
  let carry_inplace h =
    for _pass = 0 to 1 do
      for i = 0 to 8 do
        let b = limb_bits i in
        let c = (h.(i) + (1 lsl (b - 1))) asr b in
        h.(i + 1) <- h.(i + 1) + c;
        h.(i) <- h.(i) - (c lsl b)
      done;
      let c = (h.(9) + (1 lsl 24)) asr 25 in
      h.(0) <- h.(0) + (19 * c);
      h.(9) <- h.(9) - (c lsl 25)
    done

  let carried h =
    carry_inplace h;
    h

  let add a b = carried (Array.init 10 (fun i -> a.(i) + b.(i)))
  let sub a b = carried (Array.init 10 (fun i -> a.(i) - b.(i)))
  let neg a = carried (Array.init 10 (fun i -> -a.(i)))

  (* Product limb (i, j) contributes to limb (i+j) mod 10 with factor 19
     when it wraps past 2^255 and factor 2 when both source limbs sit on
     25-bit (odd) positions: pos(i) + pos(j) - pos(i+j) = 1 exactly when i
     and j are both odd. With inputs carried (|limb| <= 2^26), each of the
     10 accumulated terms is below 38 * 2^52, so sums stay below 2^62. *)
  let coeff =
    Array.init 10 (fun i ->
        Array.init 10 (fun j ->
            (if i land 1 = 1 && j land 1 = 1 then 2 else 1) * if i + j >= 10 then 19 else 1))

  let mul a b =
    let h = Array.make 10 0 in
    for i = 0 to 9 do
      let ai = a.(i) in
      let ci = coeff.(i) in
      for j = 0 to 9 do
        let k = if i + j >= 10 then i + j - 10 else i + j in
        h.(k) <- h.(k) + (ci.(j) * ai * b.(j))
      done
    done;
    carried h

  let sq a = mul a a

  let of_bn v =
    let v = Bn.rem v p in
    let h = Array.make 10 0 in
    for i = 0 to 9 do
      let b = limb_bits i in
      let x = ref 0 in
      for k = 0 to b - 1 do
        if Bn.bit v (limb_pos.(i) + k) then x := !x lor (1 lsl k)
      done;
      h.(i) <- !x
    done;
    h

  let of_int x = of_bn (Bn.of_int x)

  (* Canonical reduction (ref10 fe_tobytes): compute q = (value + 19*2^-?)
     ... i.e. q = 1 iff value >= p after the pre-carry, fold 19q into limb
     0 and run a truncating carry chain, discarding the final carry out of
     limb 9 (subtracting q * 2^255). *)
  let canonical_limbs a =
    let h = Array.copy a in
    carry_inplace h;
    let q = ref (((19 * h.(9)) + (1 lsl 24)) asr 25) in
    for i = 0 to 9 do
      q := (h.(i) + !q) asr limb_bits i
    done;
    h.(0) <- h.(0) + (19 * !q);
    for i = 0 to 8 do
      let b = limb_bits i in
      let c = h.(i) asr b in
      h.(i + 1) <- h.(i + 1) + c;
      h.(i) <- h.(i) land ((1 lsl b) - 1)
    done;
    h.(9) <- h.(9) land ((1 lsl 25) - 1);
    h

  let to_bytes a =
    let h = canonical_limbs a in
    let out = Bytes.make 32 '\x00' in
    for i = 0 to 9 do
      for k = 0 to limb_bits i - 1 do
        if (h.(i) lsr k) land 1 = 1 then begin
          let bitpos = limb_pos.(i) + k in
          let byte = bitpos / 8 and off = bitpos mod 8 in
          Bytes.set out byte (Char.chr (Char.code (Bytes.get out byte) lor (1 lsl off)))
        end
      done
    done;
    Bytes.unsafe_to_string out

  let of_bytes s =
    if String.length s <> 32 then invalid_arg "Fe25519.of_bytes: need 32 bytes";
    let v = Bn.of_bytes_le s in
    (* clear bit 255 per RFC 8032 decoding *)
    let v = if Bn.bit v 255 then Bn.sub v (Bn.shift_left Bn.one 255) else v in
    of_bn v

  let to_bn a = Bn.of_bytes_le (to_bytes a)
  let equal a b = to_bytes a = to_bytes b
  let is_zero a = equal a zero
  let is_negative a = Char.code (to_bytes a).[0] land 1 = 1

  let pow_bn x e =
    let result = ref one and base = ref x in
    for i = 0 to Bn.num_bits e - 1 do
      if Bn.bit e i then result := mul !result !base;
      base := sq !base
    done;
    !result

  let inv x = pow_bn x (Bn.sub p (Bn.of_int 2))
end

module Scalar = struct
  let l =
    Bn.add
      (Bn.shift_left Bn.one 252)
      (Bn.of_decimal "27742317777372353535851937790883648493")

  let reduce_bytes s = Bn.rem (Bn.of_bytes_le s) l

  let of_bytes_checked s =
    if String.length s <> 32 then None
    else begin
      let v = Bn.of_bytes_le s in
      if Bn.compare v l >= 0 then None else Some v
    end

  let to_bytes v = Bn.to_bytes_le ~length:32 v
  let muladd k a r = Bn.rem (Bn.add (Bn.mul k a) r) l
end

module Point = struct
  type t = { x : Fe25519.t; y : Fe25519.t; z : Fe25519.t; t : Fe25519.t }

  let fe_of_decimal s = Fe25519.of_bn (Bn.of_decimal s)

  let d =
    let num = Fe25519.neg (fe_of_decimal "121665") in
    Fe25519.mul num (Fe25519.inv (fe_of_decimal "121666"))

  let sqrt_m1 =
    (* 2^((p-1)/4) is a square root of -1 mod p *)
    Fe25519.pow_bn (Fe25519.of_int 2) (Bn.shift_right (Bn.sub Fe25519.p Bn.one) 2)

  let identity = { x = Fe25519.zero; y = Fe25519.one; z = Fe25519.one; t = Fe25519.zero }

  let of_affine x y = { x; y; z = Fe25519.one; t = Fe25519.mul x y }

  let two_d = Fe25519.mul (Fe25519.of_int 2) d

  (* Unified addition (RFC 8032 §5.1.4). *)
  let add pt qt =
    let open Fe25519 in
    let a = mul (sub pt.y pt.x) (sub qt.y qt.x) in
    let b = mul (add pt.y pt.x) (add qt.y qt.x) in
    let c = mul (mul pt.t qt.t) two_d in
    let dd = mul (mul pt.z qt.z) (of_int 2) in
    let e = sub b a and f = sub dd c and g = add dd c and h = add b a in
    { x = mul e f; y = mul g h; z = mul f g; t = mul e h }

  let double pt = add pt pt
  let negate pt = { pt with x = Fe25519.neg pt.x; t = Fe25519.neg pt.t }

  let scalar_mul k p =
    let acc = ref identity and base = ref p in
    for i = 0 to Bn.num_bits k - 1 do
      if Bn.bit k i then acc := add !acc !base;
      base := double !base
    done;
    !acc

  (* Straus: one doubling chain shared by every term; per-bit additions. *)
  let multi_scalar_mul pairs =
    let maxbits = List.fold_left (fun m (k, _) -> max m (Bn.num_bits k)) 0 pairs in
    let acc = ref identity in
    for i = maxbits - 1 downto 0 do
      acc := double !acc;
      List.iter (fun (k, p) -> if Bn.bit k i then acc := add !acc p) pairs
    done;
    !acc

  let compress p =
    let zinv = Fe25519.inv p.z in
    let x = Fe25519.mul p.x zinv and y = Fe25519.mul p.y zinv in
    let enc = Bytes.of_string (Fe25519.to_bytes y) in
    if Fe25519.is_negative x then
      Bytes.set enc 31 (Char.chr (Char.code (Bytes.get enc 31) lor 0x80));
    Bytes.unsafe_to_string enc

  let decompress s =
    if String.length s <> 32 then None
    else begin
      let sign = Char.code s.[31] lsr 7 = 1 in
      let y = Fe25519.of_bytes s in
      let open Fe25519 in
      let y2 = sq y in
      let u = sub y2 one in
      let v = Fe25519.add (mul d y2) one in
      (* candidate root x = (u/v)^((p+3)/8), computed as
         u * v^3 * (u * v^7)^((p-5)/8)  (RFC 8032 §5.1.3) *)
      let v3 = mul v (sq v) in
      let v7 = mul v3 (sq (sq v)) in
      let e = Bn.shift_right (Bn.sub p (Bn.of_int 5)) 3 in
      let x = mul (mul u v3) (pow_bn (mul u v7) e) in
      let vx2 = mul v (sq x) in
      let x =
        if equal vx2 u then Some x
        else if equal vx2 (neg u) then Some (mul x sqrt_m1)
        else None
      in
      match x with
      | None -> None
      | Some x ->
          if is_zero x && sign then None
          else begin
            let x = if is_negative x <> sign then neg x else x in
            Some (of_affine x y)
          end
    end

  let base =
    let y = Fe25519.mul (Fe25519.of_int 4) (Fe25519.inv (Fe25519.of_int 5)) in
    let enc = Fe25519.to_bytes y in
    (* sign bit 0: the base point has even x *)
    match decompress enc with
    | Some p -> p
    | None -> failwith "Point.base: internal error"

  (* Fixed-base acceleration: precomputed 4-bit windows of B. Lazy so that
     merely linking the library does not pay the table cost. *)
  let base_table =
    lazy
      (let table = Array.make (64 * 16) identity in
       let acc = ref base in
       for w = 0 to 63 do
         (* table.(16w + j) = j * 16^w * B *)
         let cur = ref identity in
         for j = 0 to 15 do
           table.((16 * w) + j) <- !cur;
           cur := add !cur !acc
         done;
         acc := !cur
       done;
       table)

  let base_mul k =
    let table = Lazy.force base_table in
    let acc = ref identity in
    for w = 0 to 63 do
      let digit =
        (if Bn.bit k (4 * w) then 1 else 0)
        lor (if Bn.bit k ((4 * w) + 1) then 2 else 0)
        lor (if Bn.bit k ((4 * w) + 2) then 4 else 0)
        lor if Bn.bit k ((4 * w) + 3) then 8 else 0
      in
      if digit <> 0 then acc := add !acc table.((16 * w) + digit)
    done;
    if Bn.num_bits k > 256 then add !acc (scalar_mul (Bn.shift_right k 256) (scalar_mul (Bn.shift_left Bn.one 256) base))
    else !acc

  let equal p q = compress p = compress q

  let on_curve p =
    let zinv = Fe25519.inv p.z in
    let x = Fe25519.mul p.x zinv and y = Fe25519.mul p.y zinv in
    let open Fe25519 in
    let x2 = sq x and y2 = sq y in
    let lhs = sub y2 x2 in
    let rhs = Fe25519.add one (mul d (mul x2 y2)) in
    equal lhs rhs
end

module Eddsa = struct
  type secret_key = {
    seed : string;
    scalar : Bn.t; (* clamped secret scalar *)
    prefix : string; (* second half of SHA-512(seed) *)
    pk : string; (* cached compressed public key *)
  }

  type public_key = string

  let public_key_size = 32
  let signature_size = 64

  let clamp h32 =
    let b = Bytes.of_string h32 in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 248));
    Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 127 lor 64));
    Bytes.unsafe_to_string b

  let secret_of_seed seed =
    if String.length seed <> 32 then invalid_arg "Eddsa.secret_of_seed: need 32 bytes";
    let h = Sha512.digest seed in
    let scalar = Bn.of_bytes_le (clamp (String.sub h 0 32)) in
    let prefix = String.sub h 32 32 in
    let pk = Point.compress (Point.base_mul scalar) in
    { seed; scalar; prefix; pk }

  let seed_of_secret sk = sk.seed
  let public_key sk = sk.pk

  let generate rng =
    let sk = secret_of_seed (Dsig_util.Rng.bytes rng 32) in
    (sk, sk.pk)

  let sign sk msg =
    let r = Scalar.reduce_bytes (Sha512.digest (sk.prefix ^ msg)) in
    let r_enc = Point.compress (Point.base_mul r) in
    let k = Scalar.reduce_bytes (Sha512.digest (r_enc ^ sk.pk ^ msg)) in
    let s = Scalar.muladd k sk.scalar r in
    r_enc ^ Scalar.to_bytes s

  let verify pk msg signature =
    String.length signature = 64 && String.length pk = 32
    &&
    let r_enc = String.sub signature 0 32 in
    let s_enc = String.sub signature 32 32 in
    match (Scalar.of_bytes_checked s_enc, Point.decompress r_enc, Point.decompress pk) with
    | Some s, Some r, Some a ->
        let k = Scalar.reduce_bytes (Sha512.digest (r_enc ^ pk ^ msg)) in
        (* [S]B = R + [k]A *)
        let lhs = Point.base_mul s in
        let rhs = Point.add r (Point.scalar_mul k a) in
        Point.equal lhs rhs
    | _ -> false

  (* Randomized batch verification: with random z_i, the linear relation
     [sum z_i S_i] B - sum [z_i] R_i - sum [z_i k_i] A_i = O holds for all
     batches of valid signatures and fails w.h.p. if any is invalid. *)
  let verify_batch rng entries =
    let decoded =
      List.map
        (fun (pk, msg, signature) ->
          if String.length signature <> 64 || String.length pk <> 32 then None
          else begin
            let r_enc = String.sub signature 0 32 in
            let s_enc = String.sub signature 32 32 in
            match (Scalar.of_bytes_checked s_enc, Point.decompress r_enc, Point.decompress pk) with
            | Some s, Some r, Some a ->
                let k = Scalar.reduce_bytes (Sha512.digest (r_enc ^ pk ^ msg)) in
                Some (s, r, a, k)
            | _ -> None
          end)
        entries
    in
    if List.exists Option.is_none decoded then false
    else begin
      let decoded = List.filter_map Fun.id decoded in
      let z () = Bn.add Bn.one (Bn.of_bytes_le (Dsig_util.Rng.bytes rng 16)) in
      (* check [sum z_i S_i] B - sum [z_i] R_i - sum [z_i k_i] A_i = O with
         one shared-doubling multi-scalar multiplication *)
      let lhs_scalar = ref Bn.zero in
      let terms =
        List.concat_map
          (fun (s, r, a, k) ->
            let zi = z () in
            lhs_scalar := Bn.rem (Bn.add !lhs_scalar (Bn.mul zi s)) Scalar.l;
            [ (zi, Point.negate r); (Bn.rem (Bn.mul zi k) Scalar.l, Point.negate a) ])
          decoded
      in
      Point.equal Point.identity
        (Point.multi_scalar_mul ((!lhs_scalar, Point.base) :: terms))
    end
end
