(* Scalars are 32-byte little-endian strings. Arithmetic runs on 21-bit
   signed limbs (ref10's sc_reduce/sc_muladd): limb 12 sits at bit 252,
   and 2^252 = -(L - 2^252) mod L, so a limb c at position i >= 12 folds
   into positions i-12 .. i-7 as c times the six 21-bit signed digits of
   -(L - 2^252). *)

let l = "\xed\xd3\xf5\x5c\x1a\x63\x12\x58\xd6\x9c\xf7\xa2\xde\xf9\xde\x14" ^ String.make 15 '\x00' ^ "\x10"
let zero = String.make 32 '\x00'
let one = "\x01" ^ String.make 31 '\x00'

let load4 s i = Int32.to_int (String.get_int32_le s i) land 0xffff_ffff

(* n limbs of 21 bits; the last takes every remaining bit *)
let unpack s n =
  Array.init n (fun i ->
      let pos = 21 * i in
      let v = load4 s (pos lsr 3) lsr (pos land 7) in
      if i = n - 1 then v else v land 0x1fffff)

let fold s i =
  let c = s.(i) in
  s.(i - 12) <- s.(i - 12) + (c * 666643);
  s.(i - 11) <- s.(i - 11) + (c * 470296);
  s.(i - 10) <- s.(i - 10) + (c * 654183);
  s.(i - 9) <- s.(i - 9) - (c * 997805);
  s.(i - 8) <- s.(i - 8) + (c * 136657);
  s.(i - 7) <- s.(i - 7) - (c * 683901);
  s.(i) <- 0

(* signed carry of limb i into i+1, rounding (|limb| <= 2^20 after) or
   flooring (0 <= limb < 2^21 after) *)
let carry_round s i =
  let c = (s.(i) + (1 lsl 20)) asr 21 in
  s.(i + 1) <- s.(i + 1) + c;
  s.(i) <- s.(i) - (c lsl 21)

let carry_floor s i =
  let c = s.(i) asr 21 in
  s.(i + 1) <- s.(i + 1) + c;
  s.(i) <- s.(i) - (c lsl 21)

let carry_round_steps s lo hi =
  let rec go i = if i <= hi then (carry_round s i; go (i + 2)) in
  go lo

let pack s =
  let out = Bytes.create 32 in
  let acc = ref 0 and bits = ref 0 and n = ref 0 in
  for i = 0 to 11 do
    acc := !acc lor (s.(i) lsl !bits);
    bits := !bits + 21;
    while !bits >= 8 do
      Bytes.set out !n (Char.chr (!acc land 0xff));
      acc := !acc lsr 8;
      bits := !bits - 8;
      incr n
    done
  done;
  (* bits 248 and up (at most 252, the result being below L) *)
  Bytes.set out 31 (Char.chr !acc);
  Bytes.unsafe_to_string out

(* Reduce 24 limbs (value below about 2^513) to the canonical 32 bytes,
   with the same fold and carry schedule as ref10. *)
let reduce s =
  carry_round_steps s 0 22;
  carry_round_steps s 1 21;
  for i = 23 downto 18 do fold s i done;
  carry_round_steps s 6 16;
  carry_round_steps s 7 15;
  for i = 17 downto 12 do fold s i done;
  carry_round_steps s 0 10;
  carry_round_steps s 1 11;
  fold s 12;
  for i = 0 to 11 do carry_floor s i done;
  fold s 12;
  for i = 0 to 10 do carry_floor s i done;
  pack s

let reduce_bytes s =
  let n = String.length s in
  if n > 64 then invalid_arg "Scalar.reduce_bytes: more than 64 bytes";
  reduce (unpack (s ^ String.make (64 - n) '\x00') 24)

let check32 name s = if String.length s <> 32 then invalid_arg ("Scalar." ^ name ^ ": need 32 bytes")

let muladd k a r =
  check32 "muladd" k;
  check32 "muladd" a;
  check32 "muladd" r;
  let k = unpack k 12 and a = unpack a 12 in
  let s = Array.append (unpack r 12) (Array.make 12 0) in
  for i = 0 to 11 do
    let ki = k.(i) in
    for j = 0 to 11 do
      s.(i + j) <- s.(i + j) + (ki * a.(j))
    done
  done;
  reduce s

let of_bytes_checked s =
  (* little-endian comparison against L from the top byte down *)
  let rec below i =
    i >= 0
    &&
    let a = Char.code s.[i] and b = Char.code l.[i] in
    a < b || (a = b && below (i - 1))
  in
  if String.length s = 32 && below 31 then Some s else None
