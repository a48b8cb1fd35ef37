(* GF(2^8) arithmetic modulo the AES polynomial x^8+x^4+x^3+x+1. *)
let gf_mul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 = 1 then acc := !acc lxor !a;
    a := !a lsl 1;
    if !a land 0x100 <> 0 then a := !a lxor 0x11b;
    b := !b lsr 1
  done;
  !acc

let gf_inv x =
  if x = 0 then 0
  else begin
    let rec find y = if gf_mul x y = 1 then y else find (y + 1) in
    find 1
  end

let sbox =
  Array.init 256 (fun x ->
      let i = gf_inv x in
      let bit b v = (v lsr b) land 1 in
      let out = ref 0 in
      for b = 0 to 7 do
        let v =
          bit b i lxor bit ((b + 4) mod 8) i lxor bit ((b + 5) mod 8) i
          lxor bit ((b + 6) mod 8) i
          lxor bit ((b + 7) mod 8) i
          lxor bit b 0x63
        in
        out := !out lor (v lsl b)
      done;
      !out)

type state = int array

(* Fused SubBytes+ShiftRows+MixColumns table: entries 0..255 feed row 0
   of the MixColumns matrix (2,1,1,3 down the column), and entries
   256k .. 256k+255 are those words rotated right by 8k bits, for rows
   k = 1..3. One array of 1024 words serves every round. *)
let table =
  let t0 =
    Array.init 256 (fun x ->
        let s = sbox.(x) in
        (gf_mul 2 s lsl 24) lor (s lsl 16) lor (s lsl 8) lor gf_mul 3 s)
  in
  let rotr v k = ((v lsr k) lor (v lsl (32 - k))) land 0xffffffff in
  Array.init 1024 (fun i -> rotr t0.(i land 255) (8 * (i lsr 8)))

let get_word s off = Int32.to_int (String.get_int32_be s off) land 0xffffffff
let state_of_string s off : state = Array.init 4 (fun c -> get_word s (off + (4 * c)))

let string_of_state (st : state) =
  String.init 16 (fun i -> Char.chr ((st.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))

let byte st r c = (st.(c) lsr (8 * (3 - r))) land 0xff

(* One output column of SubBytes+ShiftRows+MixColumns: row r comes from
   input column c + r, so column c reads byte r of the r-th word after it.
   Words below 2^32 keep every index inside [table]. *)
let[@inline] column a b c d =
  Array.unsafe_get table (a lsr 24)
  lxor Array.unsafe_get table (((b lsr 16) land 0xff) + 256)
  lxor Array.unsafe_get table (((c lsr 8) land 0xff) + 512)
  lxor Array.unsafe_get table ((d land 0xff) + 768)

(* All four words are read before any is written, so the round runs in
   place. *)
let round st off ~rk rk_off =
  let c0 = st.(off) and c1 = st.(off + 1) and c2 = st.(off + 2) and c3 = st.(off + 3) in
  let k0 = rk.(rk_off) and k1 = rk.(rk_off + 1) and k2 = rk.(rk_off + 2) and k3 = rk.(rk_off + 3) in
  if (c0 lor c1 lor c2 lor c3 lor k0 lor k1 lor k2 lor k3) lsr 32 <> 0 then
    invalid_arg "Aes_core.round: words must be in 0 .. 2^32-1";
  st.(off) <- column c0 c1 c2 c3 lxor k0;
  st.(off + 1) <- column c1 c2 c3 c0 lxor k1;
  st.(off + 2) <- column c2 c3 c0 c1 lxor k2;
  st.(off + 3) <- column c3 c0 c1 c2 lxor k3

let round_naive (st : state) ~rc : state =
  (* SubBytes *)
  let sb = Array.init 4 (fun c ->
      let b r = sbox.(byte st r c) in
      (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3)
  in
  (* ShiftRows: row r rotates left by r columns *)
  let sr = Array.init 4 (fun c ->
      let b r = byte sb r ((c + r) mod 4) in
      (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3)
  in
  (* MixColumns *)
  let mc = Array.init 4 (fun c ->
      let a r = byte sr r c in
      let m = gf_mul in
      let r0 = m 2 (a 0) lxor m 3 (a 1) lxor a 2 lxor a 3 in
      let r1 = a 0 lxor m 2 (a 1) lxor m 3 (a 2) lxor a 3 in
      let r2 = a 0 lxor a 1 lxor m 2 (a 2) lxor m 3 (a 3) in
      let r3 = m 3 (a 0) lxor a 1 lxor a 2 lxor m 2 (a 3) in
      (r0 lsl 24) lor (r1 lsl 16) lor (r2 lsl 8) lor r3)
  in
  let rck = state_of_string rc 0 in
  Array.init 4 (fun c -> mc.(c) lxor rck.(c))
