open Dsig_ed25519
module BU = Dsig_util.Bytesutil

let bn = Alcotest.testable Bn.pp Bn.equal

(* --- field arithmetic vs the Bn oracle --- *)

let p = Bn.sub (Bn.shift_left Bn.one 255) (Bn.of_int 19)
let l = Bn.of_bytes_le Scalar.l
let sc k = Bn.to_bytes_le ~length:32 k

(* Field elements to and from Bn through raw limbs, independently of
   Fe25519.of_bytes. *)
let limb_pos = [| 0; 26; 51; 77; 102; 128; 153; 179; 204; 230 |]

let fe_of_bn v =
  let v = Bn.rem v p in
  Fe25519.of_limbs
    (Array.init 10 (fun i ->
         Bn.to_int (Bn.rem (Bn.shift_right v limb_pos.(i)) (Bn.shift_left Bn.one (26 - (i land 1))))))

let fe_to_bn x = Bn.of_bytes_le (Fe25519.to_bytes x)

let gen_fe_bn =
  let open QCheck in
  let gen =
    Gen.oneof
      [
        Gen.map (fun s -> Bn.rem (Bn.of_bytes_be s) p) (Gen.string_size ~gen:Gen.char (Gen.return 33));
        Gen.oneofl
          [ Bn.zero; Bn.one; Bn.sub p Bn.one; Bn.of_int 19; Bn.sub p (Bn.of_int 19);
            Bn.shift_left Bn.one 254 ];
      ]
  in
  make ~print:Bn.to_hex gen

(* Limbs at magnitude m: a carried limb is within 2^25 (even) or 2^24
   (odd; limbs 1 and 5 up to 2^15 more), and the uncarried add/sub
   chains in the point formulas stack up to m = 4 of them (a doubling
   multiplies a 3 by a 4). The generator pushes each limb to within
   2^12 of m times the bound, with random or uniform signs; random
   canonical inputs never get there. *)
let gen_wide_limbs =
  let open QCheck.Gen in
  let limbs =
    1 -- 4 >>= fun m ->
    (* 0: a random sign per limb; otherwise every limb gets this sign *)
    oneofl [ 0; 1; -1 ] >>= fun uniform ->
    map
      (fun parts ->
        ( m,
          Array.of_list
            (List.mapi
               (fun i (s, off) ->
                 let bound = if i land 1 = 0 then 1 lsl 25 else (1 lsl 24) + (1 lsl 15) in
                 let s = if uniform = 0 then s else uniform in
                 s * ((m * bound) - off))
               parts) ))
      (list_repeat 10 (pair (map (fun b -> if b then 1 else -1) bool) (0 -- 4095)))
  in
  QCheck.make
    ~print:(fun ((a, fa), (b, fb)) ->
      let show l = String.concat ";" (Array.to_list (Array.map string_of_int l)) in
      Printf.sprintf "m=%d [%s] m=%d [%s]" a (show fa) b (show fb))
    (pair limbs limbs)

(* The value of ten signed limbs, reduced mod p. *)
let bn_of_limbs l =
  let part keep =
    Array.to_list l
    |> List.mapi (fun i x -> if keep x then Bn.shift_left (Bn.of_int (abs x)) limb_pos.(i) else Bn.zero)
    |> List.fold_left Bn.add Bn.zero
  in
  Bn.rem (Bn.sub (Bn.add (Bn.rem (part (fun x -> x > 0)) p) p) (Bn.rem (part (fun x -> x < 0)) p)) p

let field_qcheck =
  let open QCheck in
  let modp v = Bn.rem v p in
  [
    Test.make ~name:"fe roundtrip bn" ~count:300 gen_fe_bn (fun a ->
        Bn.equal a (fe_to_bn (fe_of_bn a)));
    Test.make ~name:"fe add oracle" ~count:300 (pair gen_fe_bn gen_fe_bn) (fun (a, b) ->
        Bn.equal (modp (Bn.add a b)) (fe_to_bn (Fe25519.add (fe_of_bn a) (fe_of_bn b))));
    Test.make ~name:"fe sub oracle" ~count:300 (pair gen_fe_bn gen_fe_bn) (fun (a, b) ->
        Bn.equal (modp (Bn.sub (Bn.add a p) b))
          (fe_to_bn (Fe25519.sub (fe_of_bn a) (fe_of_bn b))));
    Test.make ~name:"fe mul oracle" ~count:300 (pair gen_fe_bn gen_fe_bn) (fun (a, b) ->
        Bn.equal (modp (Bn.mul a b))
          (fe_to_bn (Fe25519.mul (fe_of_bn a) (fe_of_bn b))));
    Test.make ~name:"fe sq oracle" ~count:300 gen_fe_bn (fun a ->
        Bn.equal (modp (Bn.mul a a)) (fe_to_bn (Fe25519.sq (fe_of_bn a))));
    Test.make ~name:"fe neg oracle" ~count:300 gen_fe_bn (fun a ->
        Bn.equal (modp (Bn.sub p a)) (fe_to_bn (Fe25519.neg (fe_of_bn a))));
    Test.make ~name:"fe inv" ~count:40 gen_fe_bn (fun a ->
        QCheck.assume (not (Bn.is_zero a));
        let x = fe_of_bn a in
        Fe25519.equal Fe25519.one (Fe25519.mul x (Fe25519.inv x)));
    Test.make ~name:"fe bytes roundtrip" ~count:200 gen_fe_bn (fun a ->
        let x = fe_of_bn a in
        Fe25519.equal x (Fe25519.of_bytes (Fe25519.to_bytes x)));
    Test.make ~name:"mul chains stay bounded" ~count:20 (pair gen_fe_bn gen_fe_bn)
      (fun (a, b) ->
        (* long alternating chains detect limb-overflow bugs *)
        let x = ref (fe_of_bn a) and y = ref (fe_of_bn b) in
        let xa = ref a and yb = ref b in
        for _ = 1 to 50 do
          let nx = Fe25519.mul !x !y and ny = Fe25519.add !x !y in
          let nxa = modp (Bn.mul !xa !yb) and nyb = modp (Bn.add !xa !yb) in
          x := nx; y := ny; xa := nxa; yb := nyb
        done;
        Bn.equal !xa (fe_to_bn !x) && Bn.equal !yb (fe_to_bn !y));
    Test.make ~name:"mul/sq at the point formulas' limb bounds" ~count:400 gen_wide_limbs
      (fun ((_, fa), (_, fb)) ->
        let x = Fe25519.of_limbs fa and y = Fe25519.of_limbs fb in
        let va = bn_of_limbs fa and vb = bn_of_limbs fb in
        Bn.equal (modp (Bn.mul va vb)) (fe_to_bn (Fe25519.mul x y))
        && Bn.equal (modp (Bn.mul va va)) (fe_to_bn (Fe25519.sq x)));
  ]

(* --- group law --- *)

let test_base_on_curve () =
  Alcotest.(check bool) "B on curve" true (Point.on_curve Point.base);
  Alcotest.(check bool) "identity on curve" true (Point.on_curve Point.identity);
  (* B has order L *)
  Alcotest.(check bool) "L*B = identity" true
    (Point.equal Point.identity (Point.scalar_mul (sc l) Point.base));
  Alcotest.(check bool) "(L-1)*B = -B" true
    (Point.equal (Point.negate Point.base)
       (Point.scalar_mul (sc (Bn.sub l Bn.one)) Point.base))

let test_base_point_coords () =
  (* RFC 8032: By = 4/5.  Encoding of B is the well-known value
     5866666666666666666666666666666666666666666666666666666666666666. *)
  Alcotest.(check string) "B encoding"
    "5866666666666666666666666666666666666666666666666666666666666666"
    (BU.to_hex (Point.compress Point.base))

let test_group_laws () =
  let k1 = Bn.of_int 123456789 and k2 = Bn.of_int 987654321 in
  let p1 = Point.scalar_mul (sc k1) Point.base and p2 = Point.scalar_mul (sc k2) Point.base in
  Alcotest.(check bool) "commutative" true (Point.equal (Point.add p1 p2) (Point.add p2 p1));
  Alcotest.(check bool) "identity" true (Point.equal p1 (Point.add p1 Point.identity));
  Alcotest.(check bool) "inverse" true
    (Point.equal Point.identity (Point.add p1 (Point.negate p1)));
  Alcotest.(check bool) "double = add self" true (Point.equal (Point.double p1) (Point.add p1 p1));
  Alcotest.(check bool) "scalar distributes" true
    (Point.equal (Point.scalar_mul (sc (Bn.add k1 k2)) Point.base) (Point.add p1 p2));
  Alcotest.(check bool) "base_mul = scalar_mul" true
    (Point.equal (Point.base_mul (sc k1)) p1)

let test_decompress_roundtrip () =
  let k = Bn.of_decimal "31415926535897932384626433832795028841971" in
  let pt = Point.scalar_mul (sc k) Point.base in
  let enc = Point.compress pt in
  match Point.decompress enc with
  | None -> Alcotest.fail "decompress failed"
  | Some pt' -> Alcotest.(check bool) "roundtrip" true (Point.equal pt pt')

let test_decompress_garbage () =
  Alcotest.(check bool) "short" true (Point.decompress "ab" = None);
  (* y = 2 is not on the curve: 4-1 / (4d+1) must be non-square; if this
     particular value were a point the test would be vacuous, so check
     that decompress at least agrees with on_curve when it succeeds. *)
  let enc = BU.of_hex "0200000000000000000000000000000000000000000000000000000000000000" in
  (match Point.decompress enc with
  | None -> ()
  | Some pt -> Alcotest.(check bool) "on curve" true (Point.on_curve pt))

(* --- RFC 8032 §7.1 test vectors --- *)

type rfc_vector = { seed : string; pk : string; msg : string; sig_ : string }

let rfc_vectors =
  [
    {
      seed = "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60";
      pk = "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a";
      msg = "";
      sig_ =
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b";
    };
    {
      seed = "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb";
      pk = "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c";
      msg = "72";
      sig_ =
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00";
    };
    {
      seed = "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7";
      pk = "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025";
      msg = "af82";
      sig_ =
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a";
    };
  ]

let flip i s = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s

let test_rfc8032 () =
  List.iteri
    (fun i v ->
      let sk = Eddsa.secret_of_seed (BU.of_hex v.seed) in
      let name suffix = Printf.sprintf "vector %d %s" (i + 1) suffix in
      Alcotest.(check string) (name "pk") v.pk (BU.to_hex (Eddsa.public_key sk));
      let signature = Eddsa.sign sk (BU.of_hex v.msg) in
      Alcotest.(check string) (name "sig") v.sig_ (BU.to_hex signature);
      Alcotest.(check bool) (name "verify") true
        (Eddsa.verify (Eddsa.public_key sk) (BU.of_hex v.msg) signature);
      (* the prepared key agrees with the one-shot path and the
         reference, on the vector and on it tampered *)
      let vk = Option.get (Eddsa.verifying_key (BU.of_hex v.pk)) in
      List.iter
        (fun (what, msg, s) ->
          let expect = Ref_ed25519.Eddsa.verify (BU.of_hex v.pk) msg s in
          Alcotest.(check bool) (name ("verify = reference, " ^ what)) expect
            (Eddsa.verify (BU.of_hex v.pk) msg s);
          Alcotest.(check bool) (name ("verify_with = reference, " ^ what)) expect
            (Eddsa.verify_with vk msg s))
        [
          ("genuine", BU.of_hex v.msg, signature);
          ("message", BU.of_hex v.msg ^ "!", signature);
          ("R", BU.of_hex v.msg, flip 3 signature);
          ("S", BU.of_hex v.msg, flip 40 signature);
        ])
    rfc_vectors

(* Every verdict is checked on the one-shot path and under a prepared
   key; a key that does not decode has no prepared form. *)
let test_verify_rejects () =
  let sk = Eddsa.secret_of_seed (String.make 32 '\x07') in
  let pk = Eddsa.public_key sk in
  let msg = "attack at dawn" in
  let signature = Eddsa.sign sk msg in
  let check name expect ?(pk = pk) msg s =
    Alcotest.(check bool) name expect (Eddsa.verify pk msg s);
    Alcotest.(check bool) (name ^ " (prepared)") expect
      (match Eddsa.verifying_key pk with Some vk -> Eddsa.verify_with vk msg s | None -> false)
  in
  check "accepts valid" true msg signature;
  check "rejects wrong msg" false "attack at dusk" signature;
  check "rejects truncated" false msg (String.sub signature 0 63);
  check "rejects empty" false msg "";
  check "rejects flipped R" false msg (flip 0 signature);
  check "rejects flipped S" false msg (flip 32 signature);
  check "rejects wrong pk" false ~pk:(flip 1 pk) msg signature;
  (* S >= L must be rejected (malleability check) *)
  let s = Bn.of_bytes_le (String.sub signature 32 32) in
  let s' = Bn.add s l in
  if Bn.num_bits s' <= 256 then begin
    let forged = String.sub signature 0 32 ^ Bn.to_bytes_le ~length:32 s' in
    check "rejects S+L" false msg forged
  end

(* affine Edwards addition over Bn as an independent oracle for the
   extended-coordinate group law:
   x3 = (x1 y2 + x2 y1) / (1 + d x1 x2 y1 y2)
   y3 = (y1 y2 + x1 x2) / (1 - d x1 x2 y1 y2) *)
let affine_of_point pt =
  (* recover affine coordinates via compress/decompress *)
  let enc = Point.compress pt in
  let y = Bn.rem (Bn.of_bytes_le (String.sub enc 0 31 ^ String.make 1 (Char.chr (Char.code enc.[31] land 0x7f)))) p in
  let sign = Char.code enc.[31] lsr 7 in
  (y, sign)

let bn_affine_add (x1, y1) (x2, y2) =
  let d = fe_to_bn Point.d in
  let modp v = Bn.rem v p in
  let mul a b = modp (Bn.mul a b) in
  let add a b = modp (Bn.add a b) in
  let sub a b = modp (Bn.sub (Bn.add a p) b) in
  let inv a = Bn.mod_inv a p in
  let prod = mul (mul x1 x2) (mul y1 y2) in
  let dxy = mul d prod in
  let x3 = mul (add (mul x1 y2) (mul x2 y1)) (inv (add Bn.one dxy)) in
  let y3 = mul (add (mul y1 y2) (mul x1 x2)) (inv (sub Bn.one dxy)) in
  (x3, y3)

let affine_xy pt =
  (* brute: decompress gives x with the right sign; reconstruct via Fe *)
  let enc = Point.compress pt in
  match Point.decompress enc with
  | None -> Alcotest.fail "affine_xy: invalid point"
  | Some _ ->
      ignore (affine_of_point pt);
      (* derive x,y from the decompressed point by compressing once more:
         instead, recompute from scratch using Fe arithmetic mirrors the
         production code; to stay independent we extract y from the
         encoding and recover x via the curve equation over Bn. *)
      let y =
        Bn.rem
          (Bn.of_bytes_le (String.sub enc 0 31 ^ String.make 1 (Char.chr (Char.code enc.[31] land 0x7f))))
          p
      in
      let sign = Char.code enc.[31] lsr 7 in
      let d = fe_to_bn Point.d in
      let modp v = Bn.rem v p in
      let mul a b = modp (Bn.mul a b) in
      let y2 = mul y y in
      let num = modp (Bn.sub (Bn.add y2 p) Bn.one) in
      let den = modp (Bn.add (mul d y2) Bn.one) in
      let x2 = mul num (Bn.mod_inv den p) in
      let x = Bn.mod_pow x2 (Bn.shift_right (Bn.add p (Bn.of_int 3)) 3) p in
      let x = if Bn.equal (mul x x) x2 then x else
          mul x (Bn.mod_pow (Bn.of_int 2) (Bn.shift_right (Bn.sub p Bn.one) 2) p)
      in
      let x = if Bn.to_int (Bn.rem x (Bn.of_int 2)) = sign then x else Bn.sub p x in
      (x, y)

let test_group_law_oracle () =
  (* compare extended-coordinate addition against the Bn affine formula
     on pseudo-random points *)
  for i = 1 to 8 do
    let k1 = Bn.of_int (1000 + (i * 7919)) and k2 = Bn.of_int (2000 + (i * 104729)) in
    let p1 = Point.scalar_mul (sc k1) Point.base and p2 = Point.scalar_mul (sc k2) Point.base in
    let sum = Point.add p1 p2 in
    let x3, y3 = bn_affine_add (affine_xy p1) (affine_xy p2) in
    let x3', y3' = affine_xy sum in
    Alcotest.(check bool) (Printf.sprintf "oracle x %d" i) true (Bn.equal x3 x3');
    Alcotest.(check bool) (Printf.sprintf "oracle y %d" i) true (Bn.equal y3 y3')
  done

let test_batch_verify () =
  let rng = Dsig_util.Rng.create 2024L in
  let entries =
    List.init 6 (fun i ->
        let sk, pk = Eddsa.generate rng in
        let msg = Printf.sprintf "batch msg %d" i in
        (pk, msg, Eddsa.sign sk msg))
  in
  Alcotest.(check bool) "valid batch" true (Eddsa.verify_batch rng entries);
  Alcotest.(check bool) "empty batch" true (Eddsa.verify_batch rng []);
  (* corrupt one message *)
  let bad = List.mapi (fun i (pk, m, s) -> if i = 3 then (pk, m ^ "!", s) else (pk, m, s)) entries in
  Alcotest.(check bool) "one bad message" false (Eddsa.verify_batch rng bad);
  (* corrupt one signature byte *)
  let bad =
    List.mapi
      (fun i (pk, m, s) ->
        if i = 0 then (pk, m, String.mapi (fun j c -> if j = 40 then Char.chr (Char.code c lxor 1) else c) s)
        else (pk, m, s))
      entries
  in
  Alcotest.(check bool) "one bad sig" false (Eddsa.verify_batch rng bad);
  (* malformed entries fail *)
  Alcotest.(check bool) "short sig" false
    (Eddsa.verify_batch rng [ (List.hd entries |> fun (pk, m, _) -> (pk, m, "short")) ])

let eddsa_qcheck =
  let open QCheck in
  [
    Test.make ~name:"sign/verify roundtrip" ~count:8 (string_of_size Gen.(0 -- 200))
      (fun msg ->
        let rng = Dsig_util.Rng.create (Int64.of_int (Hashtbl.hash msg)) in
        let sk, pk = Eddsa.generate rng in
        Eddsa.verify pk msg (Eddsa.sign sk msg));
    Test.make ~name:"signature binds message" ~count:6
      (pair (string_of_size Gen.(1 -- 50)) (string_of_size Gen.(1 -- 50)))
      (fun (m1, m2) ->
        QCheck.assume (m1 <> m2);
        let rng = Dsig_util.Rng.create 99L in
        let sk, pk = Eddsa.generate rng in
        not (Eddsa.verify pk m2 (Eddsa.sign sk m1)));
  ]

let suites =
  [
    ( "ed25519.field",
      List.map (QCheck_alcotest.to_alcotest ~long:false) field_qcheck );
    ( "ed25519.group",
      [
        Alcotest.test_case "base on curve" `Quick test_base_on_curve;
        Alcotest.test_case "base encoding" `Quick test_base_point_coords;
        Alcotest.test_case "group laws" `Quick test_group_laws;
        Alcotest.test_case "decompress roundtrip" `Quick test_decompress_roundtrip;
        Alcotest.test_case "decompress garbage" `Quick test_decompress_garbage;
      ] );
    ( "ed25519.eddsa",
      [
        Alcotest.test_case "rfc8032 vectors" `Quick test_rfc8032;
        Alcotest.test_case "verify rejects" `Quick test_verify_rejects;
        Alcotest.test_case "batch verification" `Quick test_batch_verify;
        Alcotest.test_case "group law vs Bn oracle" `Quick test_group_law_oracle;
      ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false) eddsa_qcheck );
  ]
