(* Ten signed limbs in radix 2^25.5: limb i holds bits [pos i, pos i +
   26) for even i and 25 bits for odd i, pos = 0, 26, 51, 77, 102, 128,
   153, 179, 204, 230 (ref10's fe). *)
type t = int array

let zero : t = Array.make 10 0
let one : t = [| 1; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]
let of_int x : t = [| x; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]
let of_limbs l : t = if Array.length l <> 10 then invalid_arg "Fe25519.of_limbs" else Array.copy l

let[@inline] g (a : t) i = Array.unsafe_get a i

(* One carry chain, in ref10's interleaved order: brings limbs of up to
   ~2^62 back to |even| <= 2^25, |odd| <= 2^24 (limbs 1 and 5 may exceed
   that by up to 2^15), which is what mul and sq are sized for. *)
let[@inline] carry h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 : t =
  let c = (h0 + (1 lsl 25)) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  let c = (h4 + (1 lsl 25)) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h1 + (1 lsl 24)) asr 25 in
  let h2 = h2 + c and h1 = h1 - (c lsl 25) in
  let c = (h5 + (1 lsl 24)) asr 25 in
  let h6 = h6 + c and h5 = h5 - (c lsl 25) in
  let c = (h2 + (1 lsl 25)) asr 26 in
  let h3 = h3 + c and h2 = h2 - (c lsl 26) in
  let c = (h6 + (1 lsl 25)) asr 26 in
  let h7 = h7 + c and h6 = h6 - (c lsl 26) in
  let c = (h3 + (1 lsl 24)) asr 25 in
  let h4 = h4 + c and h3 = h3 - (c lsl 25) in
  let c = (h7 + (1 lsl 24)) asr 25 in
  let h8 = h8 + c and h7 = h7 - (c lsl 25) in
  let c = (h4 + (1 lsl 25)) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h8 + (1 lsl 25)) asr 26 in
  let h9 = h9 + c and h8 = h8 - (c lsl 26) in
  let c = (h9 + (1 lsl 24)) asr 25 in
  let h0 = h0 + (19 * c) and h9 = h9 - (c lsl 25) in
  let c = (h0 + (1 lsl 25)) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  [| h0; h1; h2; h3; h4; h5; h6; h7; h8; h9 |]

(* add, sub and neg do not carry: their outputs feed mul/sq directly,
   and the point formulas never stack more than a few of them (see
   fe25519.mli for the bound). *)
let add a b : t =
  [| g a 0 + g b 0; g a 1 + g b 1; g a 2 + g b 2; g a 3 + g b 3; g a 4 + g b 4;
     g a 5 + g b 5; g a 6 + g b 6; g a 7 + g b 7; g a 8 + g b 8; g a 9 + g b 9 |]

let sub a b : t =
  [| g a 0 - g b 0; g a 1 - g b 1; g a 2 - g b 2; g a 3 - g b 3; g a 4 - g b 4;
     g a 5 - g b 5; g a 6 - g b 6; g a 7 - g b 7; g a 8 - g b 8; g a 9 - g b 9 |]

let neg a : t = [| -g a 0; -g a 1; -g a 2; -g a 3; -g a 4; -g a 5; -g a 6; -g a 7; -g a 8; -g a 9 |]

(* Schoolbook product: limb pair (i, j) lands on limb (i+j) mod 10,
   times 19 when it wraps past 2^255 and times 2 when both limbs are odd
   (their positions sum one bit past the target limb's). *)
let mul f g' =
  let f0 = g f 0 and f1 = g f 1 and f2 = g f 2 and f3 = g f 3 and f4 = g f 4 in
  let f5 = g f 5 and f6 = g f 6 and f7 = g f 7 and f8 = g f 8 and f9 = g f 9 in
  let g0 = g g' 0 and g1 = g g' 1 and g2 = g g' 2 and g3 = g g' 3 and g4 = g g' 4 in
  let g5 = g g' 5 and g6 = g g' 6 and g7 = g g' 7 and g8 = g g' 8 and g9 = g g' 9 in
  let g1_19 = 19 * g1 and g2_19 = 19 * g2 and g3_19 = 19 * g3 and g4_19 = 19 * g4 in
  let g5_19 = 19 * g5 and g6_19 = 19 * g6 and g7_19 = 19 * g7 and g8_19 = 19 * g8 in
  let g9_19 = 19 * g9 in
  let f1_2 = 2 * f1 and f3_2 = 2 * f3 and f5_2 = 2 * f5 and f7_2 = 2 * f7 and f9_2 = 2 * f9 in
  let h0 =
    (f0 * g0) + (f1_2 * g9_19) + (f2 * g8_19) + (f3_2 * g7_19) + (f4 * g6_19) + (f5_2 * g5_19)
    + (f6 * g4_19) + (f7_2 * g3_19) + (f8 * g2_19) + (f9_2 * g1_19)
  in
  let h1 =
    (f0 * g1) + (f1 * g0) + (f2 * g9_19) + (f3 * g8_19) + (f4 * g7_19) + (f5 * g6_19) + (f6 * g5_19)
    + (f7 * g4_19) + (f8 * g3_19) + (f9 * g2_19)
  in
  let h2 =
    (f0 * g2) + (f1_2 * g1) + (f2 * g0) + (f3_2 * g9_19) + (f4 * g8_19) + (f5_2 * g7_19)
    + (f6 * g6_19) + (f7_2 * g5_19) + (f8 * g4_19) + (f9_2 * g3_19)
  in
  let h3 =
    (f0 * g3) + (f1 * g2) + (f2 * g1) + (f3 * g0) + (f4 * g9_19) + (f5 * g8_19) + (f6 * g7_19)
    + (f7 * g6_19) + (f8 * g5_19) + (f9 * g4_19)
  in
  let h4 =
    (f0 * g4) + (f1_2 * g3) + (f2 * g2) + (f3_2 * g1) + (f4 * g0) + (f5_2 * g9_19) + (f6 * g8_19)
    + (f7_2 * g7_19) + (f8 * g6_19) + (f9_2 * g5_19)
  in
  let h5 =
    (f0 * g5) + (f1 * g4) + (f2 * g3) + (f3 * g2) + (f4 * g1) + (f5 * g0) + (f6 * g9_19) + (f7 * g8_19)
    + (f8 * g7_19) + (f9 * g6_19)
  in
  let h6 =
    (f0 * g6) + (f1_2 * g5) + (f2 * g4) + (f3_2 * g3) + (f4 * g2) + (f5_2 * g1) + (f6 * g0)
    + (f7_2 * g9_19) + (f8 * g8_19) + (f9_2 * g7_19)
  in
  let h7 =
    (f0 * g7) + (f1 * g6) + (f2 * g5) + (f3 * g4) + (f4 * g3) + (f5 * g2) + (f6 * g1) + (f7 * g0)
    + (f8 * g9_19) + (f9 * g8_19)
  in
  let h8 =
    (f0 * g8) + (f1_2 * g7) + (f2 * g6) + (f3_2 * g5) + (f4 * g4) + (f5_2 * g3) + (f6 * g2)
    + (f7_2 * g1) + (f8 * g0) + (f9_2 * g9_19)
  in
  let h9 =
    (f0 * g9) + (f1 * g8) + (f2 * g7) + (f3 * g6) + (f4 * g5) + (f5 * g4) + (f6 * g3) + (f7 * g2)
    + (f8 * g1) + (f9 * g0)
  in
  carry h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

(* mul f f with each symmetric pair (i, j), i < j, taken once and
   doubled. *)
let sq f =
  let f0 = g f 0 and f1 = g f 1 and f2 = g f 2 and f3 = g f 3 and f4 = g f 4 in
  let f5 = g f 5 and f6 = g f 6 and f7 = g f 7 and f8 = g f 8 and f9 = g f 9 in
  let f0_2 = 2 * f0 and f1_2 = 2 * f1 and f2_2 = 2 * f2 and f3_2 = 2 * f3 and f4_2 = 2 * f4 in
  let f5_2 = 2 * f5 and f6_2 = 2 * f6 and f7_2 = 2 * f7 and f8_2 = 2 * f8 and f9_2 = 2 * f9 in
  let f5_19 = 19 * f5 and f6_19 = 19 * f6 and f7_19 = 19 * f7 and f8_19 = 19 * f8 in
  let f9_19 = 19 * f9 and f7_38 = 38 * f7 and f9_38 = 38 * f9 in
  let h0 =
    (f0 * f0) + (f1_2 * f9_38) + (f2_2 * f8_19) + (f3_2 * f7_38) + (f4_2 * f6_19) + (f5_2 * f5_19)
  in
  let h1 = (f0_2 * f1) + (f2_2 * f9_19) + (f3_2 * f8_19) + (f4_2 * f7_19) + (f5_2 * f6_19) in
  let h2 =
    (f0_2 * f2) + (f1_2 * f1) + (f3_2 * f9_38) + (f4_2 * f8_19) + (f5_2 * f7_38) + (f6 * f6_19)
  in
  let h3 = (f0_2 * f3) + (f1_2 * f2) + (f4_2 * f9_19) + (f5_2 * f8_19) + (f6_2 * f7_19) in
  let h4 =
    (f0_2 * f4) + (f1_2 * f3_2) + (f2 * f2) + (f5_2 * f9_38) + (f6_2 * f8_19) + (f7_2 * f7_19)
  in
  let h5 = (f0_2 * f5) + (f1_2 * f4) + (f2_2 * f3) + (f6_2 * f9_19) + (f7_2 * f8_19) in
  let h6 =
    (f0_2 * f6) + (f1_2 * f5_2) + (f2_2 * f4) + (f3_2 * f3) + (f7_2 * f9_38) + (f8 * f8_19)
  in
  let h7 = (f0_2 * f7) + (f1_2 * f6) + (f2_2 * f5) + (f3_2 * f4) + (f8_2 * f9_19) in
  let h8 =
    (f0_2 * f8) + (f1_2 * f7_2) + (f2_2 * f6) + (f3_2 * f5_2) + (f4 * f4) + (f9_2 * f9_19)
  in
  let h9 = (f0_2 * f9) + (f1_2 * f8) + (f2_2 * f7) + (f3_2 * f6) + (f4_2 * f5) in
  carry h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

let rec sq_n x n = if n = 0 then x else sq_n (sq x) (n - 1)

(* z^(2^250 - 1), the common prefix of ref10's addition chains for
   inversion and pow22523, with z^11 on the side. *)
let pow2_250_1 z =
  let z2 = sq z in
  let z9 = mul z (sq_n z2 2) in
  let z11 = mul z2 z9 in
  let z5_0 = mul z9 (sq z11) in
  let z10_0 = mul (sq_n z5_0 5) z5_0 in
  let z20_0 = mul (sq_n z10_0 10) z10_0 in
  let z40_0 = mul (sq_n z20_0 20) z20_0 in
  let z50_0 = mul (sq_n z40_0 10) z10_0 in
  let z100_0 = mul (sq_n z50_0 50) z50_0 in
  let z200_0 = mul (sq_n z100_0 100) z100_0 in
  (mul (sq_n z200_0 50) z50_0, z11)

(* z^(p-2) = z^(2^255 - 21) *)
let inv z =
  let z250, z11 = pow2_250_1 z in
  mul (sq_n z250 5) z11

(* z^((p-5)/8) = z^(2^252 - 3) *)
let pow22523 z =
  let z250, _ = pow2_250_1 z in
  mul (sq_n z250 2) z

let load4 s i = Int32.to_int (String.get_int32_le s i) land 0xffff_ffff
let limb_pos = [| 0; 26; 51; 77; 102; 128; 153; 179; 204; 230 |]

let of_bytes s =
  if String.length s <> 32 then invalid_arg "Fe25519.of_bytes: need 32 bytes";
  (* each limb's bits lie within the 4 bytes starting at pos/8; bit 255
     falls outside limb 9's 25 bits *)
  let l i =
    let p = limb_pos.(i) in
    (load4 s (p lsr 3) lsr (p land 7)) land ((1 lsl (26 - (i land 1))) - 1)
  in
  carry (l 0) (l 1) (l 2) (l 3) (l 4) (l 5) (l 6) (l 7) (l 8) (l 9)

(* Limbs of the canonical representative in [0, p) (ref10 fe_tobytes):
   after a carry, q = floor(h / p) is in {-1, 0, 1} and is found from
   the top limb plus the propagated carries; subtracting q*p is adding
   19q and dropping the carry out of limb 9. *)
let canonical a =
  let h = carry (g a 0) (g a 1) (g a 2) (g a 3) (g a 4) (g a 5) (g a 6) (g a 7) (g a 8) (g a 9) in
  let q = ref (((19 * h.(9)) + (1 lsl 24)) asr 25) in
  for i = 0 to 9 do
    q := (h.(i) + !q) asr (26 - (i land 1))
  done;
  h.(0) <- h.(0) + (19 * !q);
  for i = 0 to 8 do
    let b = 26 - (i land 1) in
    let c = h.(i) asr b in
    h.(i + 1) <- h.(i + 1) + c;
    h.(i) <- h.(i) - (c lsl b)
  done;
  h.(9) <- h.(9) land ((1 lsl 25) - 1);
  h

let to_bytes a =
  let h = canonical a in
  let out = Bytes.create 32 in
  let acc = ref 0 and bits = ref 0 and n = ref 0 in
  for i = 0 to 9 do
    acc := !acc lor (h.(i) lsl !bits);
    bits := !bits + 26 - (i land 1);
    while !bits >= 8 do
      Bytes.unsafe_set out !n (Char.unsafe_chr (!acc land 0xff));
      acc := !acc lsr 8;
      bits := !bits - 8;
      incr n
    done
  done;
  (* 255 bits: the last 7 are still in acc *)
  Bytes.unsafe_set out 31 (Char.unsafe_chr !acc);
  Bytes.unsafe_to_string out

let is_zero a = Array.for_all (fun x -> x = 0) (canonical a)
let equal a b = is_zero (sub a b)
let is_negative a = (canonical a).(0) land 1 = 1
