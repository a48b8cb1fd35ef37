let digest_size = 64

let rotr x n = Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x (64 - n))
let ( ^^ ) = Int64.logxor
let ( &&& ) = Int64.logand
let ( +% ) = Int64.add

(* [w] is the message-schedule scratch, allocated per digest: a shared
   one would let two domains hashing at once corrupt each other. *)
let compress h w block off =
  let k = Sha2_constants.k512 in
  for t = 0 to 15 do
    w.(t) <- String.get_int64_be block (off + (8 * t))
  done;
  for t = 16 to 79 do
    let s0 = rotr w.(t - 15) 1 ^^ rotr w.(t - 15) 8 ^^ Int64.shift_right_logical w.(t - 15) 7 in
    let s1 = rotr w.(t - 2) 19 ^^ rotr w.(t - 2) 61 ^^ Int64.shift_right_logical w.(t - 2) 6 in
    w.(t) <- w.(t - 16) +% s0 +% w.(t - 7) +% s1
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 79 do
    let s1 = rotr !e 14 ^^ rotr !e 18 ^^ rotr !e 41 in
    let ch = (!e &&& !f) ^^ (Int64.lognot !e &&& !g) in
    let t1 = !hh +% s1 +% ch +% k.(t) +% w.(t) in
    let s0 = rotr !a 28 ^^ rotr !a 34 ^^ rotr !a 39 in
    let maj = (!a &&& !b) ^^ (!a &&& !c) ^^ (!b &&& !c) in
    let t2 = s0 +% maj in
    hh := !g;
    g := !f;
    f := !e;
    e := !d +% t1;
    d := !c;
    c := !b;
    b := !a;
    a := t1 +% t2
  done;
  h.(0) <- h.(0) +% !a;
  h.(1) <- h.(1) +% !b;
  h.(2) <- h.(2) +% !c;
  h.(3) <- h.(3) +% !d;
  h.(4) <- h.(4) +% !e;
  h.(5) <- h.(5) +% !f;
  h.(6) <- h.(6) +% !g;
  h.(7) <- h.(7) +% !hh

let digest msg =
  let h = Array.copy Sha2_constants.h512 in
  let len = String.length msg in
  let bit_len = Int64.of_int (8 * len) in
  (* pad to a multiple of 128 bytes with 0x80, zeros, and a 128-bit length
     (we only ever need the low 64 bits). *)
  let r = (len + 1 + 16) mod 128 in
  let zeros = if r = 0 then 0 else 128 - r in
  let padded = Buffer.create (len + 1 + zeros + 16) in
  Buffer.add_string padded msg;
  Buffer.add_char padded '\x80';
  Buffer.add_string padded (String.make (zeros + 8) '\x00');
  for i = 0 to 7 do
    Buffer.add_char padded
      (Char.chr (Int64.to_int (Int64.shift_right_logical bit_len (8 * (7 - i))) land 0xff))
  done;
  let data = Buffer.contents padded in
  assert (String.length data mod 128 = 0);
  let w = Array.make 80 0L in
  for i = 0 to (String.length data / 128) - 1 do
    compress h w data (i * 128)
  done;
  String.init 64 (fun i ->
      Char.chr
        (Int64.to_int (Int64.shift_right_logical h.(i / 8) (8 * (7 - (i mod 8)))) land 0xff))

let hex msg = Dsig_util.Bytesutil.to_hex (digest msg)
