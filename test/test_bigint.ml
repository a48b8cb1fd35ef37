
let bn = Alcotest.testable Bn.pp Bn.equal

let test_basic () =
  Alcotest.check bn "0" Bn.zero (Bn.of_int 0);
  Alcotest.check bn "1" Bn.one (Bn.of_int 1);
  Alcotest.(check int) "to_int" 123456789 (Bn.to_int (Bn.of_int 123456789));
  Alcotest.(check string) "decimal" "123456789012345678901234567890"
    (Bn.to_decimal (Bn.of_decimal "123456789012345678901234567890"));
  Alcotest.(check string) "hex" "ff00ff00ff00ff00ff"
    (Bn.to_hex (Bn.of_hex "ff00ff00ff00ff00ff"))

let test_arith () =
  let a = Bn.of_decimal "340282366920938463463374607431768211456" (* 2^128 *) in
  let b = Bn.of_decimal "18446744073709551616" (* 2^64 *) in
  Alcotest.check bn "mul" a (Bn.mul b b);
  Alcotest.check bn "divmod q" b (fst (Bn.divmod a b));
  Alcotest.check bn "divmod r" Bn.zero (snd (Bn.divmod a b));
  Alcotest.check bn "sub" Bn.zero (Bn.sub a a);
  Alcotest.check bn "add/sub" a (Bn.sub (Bn.add a b) b);
  Alcotest.check bn "shift" a (Bn.shift_left Bn.one 128);
  Alcotest.check bn "shift right" b (Bn.shift_right a 64)

let test_bytes () =
  let v = Bn.of_hex "0102030405060708090a" in
  Alcotest.(check string) "be" "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a"
    (Bn.to_bytes_be ~length:10 v);
  Alcotest.(check string) "be padded" "\x00\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a"
    (Bn.to_bytes_be ~length:12 v);
  Alcotest.check bn "le rt" v (Bn.of_bytes_le (Bn.to_bytes_le ~length:10 v))

let test_modpow () =
  (* Fermat: 2^(p-1) = 1 mod p for prime p *)
  let p = Bn.of_decimal "57896044618658097711785492504343953926634992332820282019728792003956564819949" in
  (* p = 2^255 - 19 *)
  Alcotest.check bn "p = 2^255-19" p (Bn.sub (Bn.shift_left Bn.one 255) (Bn.of_int 19));
  Alcotest.check bn "fermat" Bn.one (Bn.mod_pow (Bn.of_int 2) (Bn.sub p Bn.one) p);
  let inv3 = Bn.mod_inv (Bn.of_int 3) p in
  Alcotest.check bn "inverse" Bn.one (Bn.rem (Bn.mul inv3 (Bn.of_int 3)) p)

let gen_bn =
  let open QCheck in
  let gen = Gen.map (fun s -> Bn.of_bytes_be s) (Gen.string_size ~gen:Gen.char (Gen.int_range 0 40)) in
  make ~print:Bn.to_hex gen

let gen_small_pos =
  let open QCheck in
  map ~rev:Bn.to_int Bn.of_int (int_range 1 1_000_000)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"add commutative" ~count:300 (pair gen_bn gen_bn) (fun (a, b) ->
        Bn.equal (Bn.add a b) (Bn.add b a));
    Test.make ~name:"mul commutative" ~count:200 (pair gen_bn gen_bn) (fun (a, b) ->
        Bn.equal (Bn.mul a b) (Bn.mul b a));
    Test.make ~name:"mul distributes" ~count:200 (triple gen_bn gen_bn gen_bn)
      (fun (a, b, c) ->
        Bn.equal (Bn.mul a (Bn.add b c)) (Bn.add (Bn.mul a b) (Bn.mul a c)));
    Test.make ~name:"divmod identity" ~count:200 (pair gen_bn gen_small_pos)
      (fun (a, b) ->
        let q, r = Bn.divmod a b in
        Bn.equal a (Bn.add (Bn.mul q b) r) && Bn.compare r b < 0);
    Test.make ~name:"sub inverse of add" ~count:300 (pair gen_bn gen_bn) (fun (a, b) ->
        Bn.equal a (Bn.sub (Bn.add a b) b));
    Test.make ~name:"decimal roundtrip" ~count:100 gen_bn (fun a ->
        Bn.equal a (Bn.of_decimal (Bn.to_decimal a)));
    Test.make ~name:"hex roundtrip" ~count:200 gen_bn (fun a ->
        Bn.equal a (Bn.of_hex (Bn.to_hex a)));
    Test.make ~name:"bytes roundtrip" ~count:200 gen_bn (fun a ->
        Bn.equal a (Bn.of_bytes_be (Bn.to_bytes_be ~length:48 a)));
    Test.make ~name:"shift consistency" ~count:200 (pair gen_bn (int_range 0 80))
      (fun (a, k) -> Bn.equal a (Bn.shift_right (Bn.shift_left a k) k));
    Test.make ~name:"num_bits bound" ~count:300 gen_bn (fun a ->
        QCheck.assume (not (Bn.is_zero a));
        let n = Bn.num_bits a in
        Bn.bit a (n - 1) && not (Bn.bit a n));
    Test.make ~name:"modpow agrees with naive" ~count:50
      (triple gen_small_pos (int_range 0 12) gen_small_pos)
      (fun (b, e, m) ->
        QCheck.assume (not (Bn.is_zero m));
        let naive = ref Bn.one in
        for _ = 1 to e do
          naive := Bn.rem (Bn.mul !naive b) m
        done;
        Bn.equal !naive (Bn.mod_pow b (Bn.of_int e) m));
  ]

(* The SHA-2 constant tables, recomputed from the first primes: the
   first 32 or 64 bits of the fractional part of the cube root (round
   constants) or square root (initial values), i.e.
   floor(root(p) * 2^bits) - floor(root(p)) * 2^bits. *)
let first_primes n =
  let rec go acc c =
    if List.length acc = n then List.rev acc
    else if List.exists (fun p -> c mod p = 0) acc then go acc (c + 1)
    else go (c :: acc) (c + 1)
  in
  go [] 2

(* Largest x with x^k <= v, by binary search. *)
let iroot k v =
  let rec pow x n = if n = 0 then Bn.one else Bn.mul x (pow x (n - 1)) in
  let lo = ref Bn.zero and hi = ref (Bn.shift_left Bn.one ((Bn.num_bits v / k) + 1)) in
  while Bn.compare (Bn.sub !hi !lo) Bn.one > 0 do
    let mid = Bn.shift_right (Bn.add !lo !hi) 1 in
    if Bn.compare (pow mid k) v <= 0 then lo := mid else hi := mid
  done;
  !lo

let frac_root k ~bits p =
  let pb = Bn.of_int p in
  Bn.sub (iroot k (Bn.shift_left pb (k * bits))) (Bn.shift_left (iroot k pb) bits)

let test_sha2_constants () =
  let module C = Dsig_hashes.Sha2_constants in
  let check name k ~bits n entries =
    Alcotest.(check (list string)) name
      (List.map (fun p -> Bn.to_hex (frac_root k ~bits p)) (first_primes n))
      (List.map Bn.to_hex entries)
  in
  let of_u32 = Array.map Bn.of_int and of_u64 = Array.map (fun v -> Bn.of_hex (Printf.sprintf "%016Lx" v)) in
  check "k256: cube roots of the first 64 primes" 3 ~bits:32 64 (Array.to_list (of_u32 C.k256));
  check "h256: square roots of the first 8 primes" 2 ~bits:32 8 (Array.to_list (of_u32 C.h256));
  check "k512: cube roots of the first 80 primes" 3 ~bits:64 80 (Array.to_list (of_u64 C.k512));
  check "h512: square roots of the first 8 primes" 2 ~bits:64 8 (Array.to_list (of_u64 C.h512))

let suites =
  [
    ( "bigint",
      [
        Alcotest.test_case "basic" `Quick test_basic;
        Alcotest.test_case "arith" `Quick test_arith;
        Alcotest.test_case "bytes" `Quick test_bytes;
        Alcotest.test_case "modpow" `Quick test_modpow;
        Alcotest.test_case "sha2 constants from prime roots" `Quick test_sha2_constants;
      ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests );
  ]
