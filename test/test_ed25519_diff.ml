(* Differential tests of lib/ed25519 against the reference copy in
   Ref_ed25519, and a local edge-case corpus built from the curve itself:
   the eight torsion points, signatures whose R and/or A carry a torsion
   component, small-order keys with S in {0, 1}, and the non-canonical
   encodings y + p < 2^255. Every case must get the same verdict from
   both implementations, for single verification (one-shot and under a
   prepared key) and batch verification, and the corpus verdicts are
   pinned so that a change to the validation rule has to update them on
   purpose. *)

open Dsig_ed25519
module Ref = Ref_ed25519
module BU = Dsig_util.Bytesutil

(* Scalars and points cross between the two implementations as bytes. *)
let enc_bn k = Bn.to_bytes_le ~length:32 k
let sc = enc_bn
let bn_of_sc = Bn.of_bytes_le
let ref_point enc = Option.get (Ref.Point.decompress enc)
let lib_point enc = Option.get (Point.decompress enc)

(* A curve point from a seed: hash until the first 32 bytes decode. The
   result is uniform over the whole group, so it usually has a torsion
   component as well as its order-L part. *)
let point_enc_of_seed seed =
  let rec go i =
    let enc = String.sub (Dsig_hashes.Sha512.digest (Printf.sprintf "%s/%d" seed i)) 0 32 in
    match Ref.Point.decompress enc with Some _ -> enc | None -> go (i + 1)
  in
  go 0

let gen_point_enc =
  QCheck.make ~print:BU.to_hex (QCheck.Gen.map point_enc_of_seed (QCheck.Gen.string_size (QCheck.Gen.return 8)))

let gen_scalar_bytes =
  let open QCheck.Gen in
  let any = string_size ~gen:char (return 32) in
  let small = map (fun n -> enc_bn (Bn.of_int n)) (0 -- 1000) in
  let near_l = map (fun d -> enc_bn (Bn.sub (Bn.add Ref.Scalar.l (Bn.of_int 3)) (Bn.of_int d))) (0 -- 6) in
  QCheck.make ~print:BU.to_hex (frequency [ (6, any); (1, small); (1, near_l) ])

(* --- points --- *)

let point_qcheck =
  let open QCheck in
  [
    Test.make ~name:"add = reference" ~count:60 (pair gen_point_enc gen_point_enc) (fun (e1, e2) ->
        Point.compress (Point.add (lib_point e1) (lib_point e2))
        = Ref.Point.compress (Ref.Point.add (ref_point e1) (ref_point e2)));
    Test.make ~name:"double = reference" ~count:60 gen_point_enc (fun e ->
        Point.compress (Point.double (lib_point e)) = Ref.Point.compress (Ref.Point.double (ref_point e)));
    Test.make ~name:"negate = reference" ~count:30 gen_point_enc (fun e ->
        Point.compress (Point.negate (lib_point e)) = Ref.Point.compress (Ref.Point.negate (ref_point e)));
    Test.make ~name:"scalar_mul = reference" ~count:15 (pair gen_scalar_bytes gen_point_enc)
      (fun (k, e) ->
        let kb = Bn.of_bytes_le k in
        Point.compress (Point.scalar_mul (sc kb) (lib_point e))
        = Ref.Point.compress (Ref.Point.scalar_mul kb (ref_point e)));
    Test.make ~name:"base_mul = reference" ~count:30 gen_scalar_bytes (fun k ->
        let kb = Bn.of_bytes_le k in
        Point.compress (Point.base_mul (sc kb)) = Ref.Point.compress (Ref.Point.base_mul kb));
    Test.make ~name:"prepared_mul = multi_scalar_mul = reference" ~count:15
      (triple gen_scalar_bytes gen_scalar_bytes gen_point_enc)
      (fun (s, k, e) ->
        let p = lib_point e in
        let via_table = Point.prepared_mul ~base:s k (Point.prepare p) in
        Point.equal via_table (Point.multi_scalar_mul ~base:s [ (k, p) ])
        && Point.compress via_table
           = Ref.Point.compress
               (Ref.Point.add
                  (Ref.Point.base_mul (Bn.of_bytes_le s))
                  (Ref.Point.scalar_mul (Bn.of_bytes_le k) (ref_point e))));
    Test.make ~name:"multi_scalar_mul = reference" ~count:8
      (list_of_size Gen.(0 -- 4) (pair gen_scalar_bytes gen_point_enc))
      (fun terms ->
        let terms = List.map (fun (k, e) -> (Bn.of_bytes_le k, e)) terms in
        Point.compress (Point.multi_scalar_mul (List.map (fun (k, e) -> (sc k, lib_point e)) terms))
        = Ref.Point.compress
            (Ref.Point.multi_scalar_mul (List.map (fun (k, e) -> (k, ref_point e)) terms)));
    Test.make ~name:"decompress+compress = reference" ~count:300 (string_of_size (Gen.return 32))
      (fun s ->
        Option.map Point.compress (Point.decompress s)
        = Option.map Ref.Point.compress (Ref.Point.decompress s));
    Test.make ~name:"equal = reference" ~count:40 (pair gen_point_enc gen_point_enc) (fun (e1, e2) ->
        (* equal points reached by different projective routes *)
        let p = Point.add (lib_point e1) (lib_point e2) in
        let q = Point.add (lib_point e2) (lib_point e1) in
        Point.equal p q
        && Point.equal (lib_point e1) (lib_point e2)
           = Ref.Point.equal (ref_point e1) (ref_point e2));
  ]

(* --- scalars against Bn --- *)

let gen_wide =
  (* 64-byte little-endian inputs, many of them within a few units of a
     multiple of L, where a reduction's final correction step matters *)
  let open QCheck.Gen in
  let top = Bn.sub (Bn.shift_left Bn.one 512) Bn.one in
  let any = string_size ~gen:char (return 64) in
  let near_multiple =
    map2
      (fun m d ->
        let v = Bn.mul (Bn.rem (Bn.of_bytes_le m) (Bn.shift_left Bn.one 259)) Ref.Scalar.l in
        let v = if d < 0 && Bn.compare v (Bn.of_int 4) >= 0 then Bn.sub v (Bn.of_int (-d)) else Bn.add v (Bn.of_int (abs d)) in
        Bn.to_bytes_le ~length:64 (if Bn.compare v top > 0 then top else v))
      (string_size ~gen:char (return 33))
      (-4 -- 4)
  in
  let extremes = oneofl [ String.make 64 '\x00'; String.make 64 '\xff'; Bn.to_bytes_le ~length:64 Ref.Scalar.l ] in
  QCheck.make ~print:BU.to_hex (frequency [ (4, any); (4, near_multiple); (1, extremes) ])

let scalar_qcheck =
  let open QCheck in
  let modl v = Bn.rem v Ref.Scalar.l in
  [
    Test.make ~name:"reduce_bytes = Bn.rem" ~count:500 gen_wide (fun s ->
        Bn.equal (bn_of_sc (Scalar.reduce_bytes s)) (modl (Bn.of_bytes_le s)));
    Test.make ~name:"muladd = Bn" ~count:500 (triple gen_scalar_bytes gen_scalar_bytes gen_scalar_bytes)
      (fun (a, b, c) ->
        let a = Bn.of_bytes_le a and b = Bn.of_bytes_le b and c = Bn.of_bytes_le c in
        Bn.equal (bn_of_sc (Scalar.muladd (sc a) (sc b) (sc c))) (modl (Bn.add (Bn.mul a b) c)));
    Test.make ~name:"of_bytes_checked = reference" ~count:300 gen_scalar_bytes (fun s ->
        Option.map bn_of_sc (Scalar.of_bytes_checked s) = Ref.Scalar.of_bytes_checked s);
  ]

(* [base_mul] splits its scalar at bit 128: the scalars at the ends of
   both halves, and random 256-bit ones. *)
let test_base_mul_edges () =
  let two_256_m1 = Bn.sub (Bn.shift_left Bn.one 256) Bn.one in
  let rng = Dsig_util.Rng.create 31L in
  let edges =
    [
      ("0", Bn.zero); ("1", Bn.one); ("L-1", Bn.sub Ref.Scalar.l Bn.one);
      ("2^128-1", Bn.sub (Bn.shift_left Bn.one 128) Bn.one); ("2^128", Bn.shift_left Bn.one 128);
      ("2^256-1", two_256_m1);
    ]
    @ List.init 8 (fun i -> (Printf.sprintf "random %d" i, Bn.of_bytes_le (Dsig_util.Rng.bytes rng 32)))
  in
  List.iter
    (fun (name, k) ->
      Alcotest.(check string) name
        (BU.to_hex (Ref.Point.compress (Ref.Point.base_mul k)))
        (BU.to_hex (Point.compress (Point.base_mul (sc k)))))
    edges

(* --- signing and verification --- *)

let flip i s = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s

(* Verification under a key prepared once; a key that does not decode
   has no prepared form and rejects everything. *)
let verify_prepared pk msg s =
  match Eddsa.verifying_key pk with Some vk -> Eddsa.verify_with vk msg s | None -> false

let eddsa_qcheck =
  let open QCheck in
  [
    Test.make ~name:"sign = reference, byte for byte" ~count:30
      (pair (string_of_size (Gen.return 32)) (string_of_size Gen.(0 -- 100)))
      (fun (seed, msg) ->
        let sk = Eddsa.secret_of_seed seed and rsk = Ref.Eddsa.secret_of_seed seed in
        Eddsa.public_key sk = Ref.Eddsa.public_key rsk && Eddsa.sign sk msg = Ref.Eddsa.sign rsk msg);
    Test.make ~name:"verify = reference (honest and tampered)" ~count:40
      (triple (string_of_size (Gen.return 32)) (string_of_size Gen.(0 -- 40)) (int_bound 99))
      (fun (seed, msg, where) ->
        let sk = Ref.Eddsa.secret_of_seed seed in
        let pk = Ref.Eddsa.public_key sk in
        let s = Ref.Eddsa.sign sk msg in
        let pk, msg, s =
          match where mod 4 with
          | 0 -> (pk, msg, s)
          | 1 -> (pk, msg, flip (where mod 64) s)
          | 2 -> (flip (where mod 32) pk, msg, s)
          | _ -> (pk, msg ^ "!", s)
        in
        Eddsa.verify pk msg s = Ref.Eddsa.verify pk msg s);
    Test.make ~name:"verify_with = verify = reference (honest and tampered)" ~count:40
      (triple (string_of_size (Gen.return 32)) (string_of_size Gen.(0 -- 40)) (int_bound 999))
      (fun (seed, msg, where) ->
        let sk = Eddsa.secret_of_seed seed in
        let pk = Eddsa.public_key sk in
        let s = Eddsa.sign sk msg in
        (* S + L < 2^254: the same point equation, but S >= L *)
        let s_plus_l =
          String.sub s 0 32 ^ Bn.to_bytes_le ~length:32 (Bn.add (Bn.of_bytes_le (String.sub s 32 32)) Ref.Scalar.l)
        in
        let pk, msg, s =
          match where mod 6 with
          | 0 -> (pk, msg, s)
          | 1 -> (pk, msg, flip (where mod 32) s)
          | 2 -> (pk, msg, flip (32 + (where mod 32)) s)
          | 3 -> (flip (where mod 32) pk, msg, s)
          | 4 -> (pk, msg ^ "!", s)
          | _ -> (pk, msg, s_plus_l)
        in
        let v = Eddsa.verify pk msg s in
        v = verify_prepared pk msg s && v = Ref.Eddsa.verify pk msg s);
  ]

(* --- edge-case corpus --- *)

(* The 8-torsion subgroup, generated by [L]P for the first decoded P
   whose torsion component has order 8; element j is [j]T8. *)
let torsion_encs () =
  let rec find i =
    let t = Ref.Point.scalar_mul Ref.Scalar.l (ref_point (point_enc_of_seed (Printf.sprintf "torsion/%d" i))) in
    if Ref.Point.equal (Ref.Point.double (Ref.Point.double t)) Ref.Point.identity then find (i + 1) else t
  in
  let t8 = find 0 in
  List.init 8 (fun j -> Ref.Point.compress (Ref.Point.scalar_mul (Bn.of_int j) t8))

(* y + p for y < 19 is below 2^255, so these 19 values have a second,
   non-canonical encoding; each with both sign bits. *)
let noncanonical_encs =
  List.concat_map
    (fun y ->
      let e = Bn.to_bytes_le ~length:32 (Bn.add Ref.Fe25519.p (Bn.of_int y)) in
      [ e; String.mapi (fun i c -> if i = 31 then Char.chr (Char.code c lor 0x80) else c) e ])
    (List.init 19 Fun.id)

let s_bytes n = Bn.to_bytes_le ~length:32 (Bn.of_int n)
let corpus_msg = "ed25519 edge-case corpus"

(* Small-order keys A, canonical and not, against every small-order R
   with S = 0 (accepted exactly when R = -[k]A); S = 1 with R the
   identity; and the non-canonical encodings as R under the identity
   key. *)
let small_order_cases torsion =
  let noncanonical = List.filter (fun e -> Ref.Point.decompress e <> None) noncanonical_encs in
  let identity = List.hd torsion in
  List.concat_map (fun a -> List.map (fun r -> (a, corpus_msg, r ^ s_bytes 0)) torsion) (torsion @ noncanonical)
  @ List.map (fun a -> (a, corpus_msg, identity ^ s_bytes 1)) torsion
  @ List.map (fun r -> (identity, corpus_msg, r ^ s_bytes 0)) noncanonical

(* Signatures made with the nonce point [r]B + T1 under the key
   [a]B + T2: valid under a cofactored rule, and under the cofactorless
   one exactly when the torsion terms cancel. *)
let torsioned_cases torsion =
  let indexed = List.mapi (fun i t -> (i, ref_point t)) torsion in
  List.concat_map
    (fun key ->
      let h = Dsig_hashes.Sha512.digest (Printf.sprintf "corpus key %d" key) in
      let a = Ref.Scalar.reduce_bytes (String.sub h 0 32) in
      let r = Ref.Scalar.reduce_bytes (String.sub h 32 32) in
      List.concat_map
        (fun (i, t1) ->
          List.map
            (fun (j, t2) ->
              let msg = Printf.sprintf "%s %d/%d/%d" corpus_msg key i j in
              let r_enc = Ref.Point.compress (Ref.Point.add (Ref.Point.base_mul r) t1) in
              let pk = Ref.Point.compress (Ref.Point.add (Ref.Point.base_mul a) t2) in
              let k = Ref.Scalar.reduce_bytes (Dsig_hashes.Sha512.digest (r_enc ^ pk ^ msg)) in
              (pk, msg, r_enc ^ Ref.Scalar.to_bytes (Ref.Scalar.muladd k a r)))
            indexed)
        indexed)
    [ 0; 1 ]

let honest_cases () =
  List.init 8 (fun i ->
      let sk = Ref.Eddsa.secret_of_seed (String.make 32 (Char.chr (65 + i))) in
      let msg = Printf.sprintf "honest %d" i in
      (Ref.Eddsa.public_key sk, msg, Ref.Eddsa.sign sk msg))

let corpus =
  lazy
    (let torsion = torsion_encs () in
     ( torsion,
       [
         ("small-order", small_order_cases torsion);
         ("torsioned", torsioned_cases torsion);
         ("honest", honest_cases ());
       ] ))

let bits f cases = String.concat "" (List.mapi (fun i c -> if f i c then "1" else "0") cases)
let accepted v = String.fold_left (fun n c -> if c = '1' then n + 1 else n) 0 v
let mismatches a b = List.length (List.filter Fun.id (List.init (String.length a) (fun i -> a.[i] <> b.[i])))

(* Singleton batches are seeded per case, so the random weight z is the
   same on both sides. *)
let single verify _ (pk, m, s) = verify pk m s
let batch verify_batch i c = verify_batch (Dsig_util.Rng.create (Int64.of_int (7919 * (i + 1)))) [ c ]

let test_corpus_shape () =
  let torsion, _ = Lazy.force corpus in
  Alcotest.(check int) "8 distinct torsion points" 8 (List.length (List.sort_uniq compare torsion));
  Alcotest.(check string) "[0]T8 is the identity"
    "0100000000000000000000000000000000000000000000000000000000000000" (BU.to_hex (List.hd torsion));
  Alcotest.(check int) "38 non-canonical encodings" 38 (List.length noncanonical_encs);
  List.iter
    (fun e ->
      Alcotest.(check bool) "8-torsion" true
        (Ref.Point.equal Ref.Point.identity (Ref.Point.scalar_mul (Bn.of_int 8) (ref_point e))))
    torsion

let test_corpus_decompress () =
  let torsion, _ = Lazy.force corpus in
  List.iter
    (fun e ->
      Alcotest.(check (option string)) (BU.to_hex e)
        (Option.map Ref.Point.compress (Ref.Point.decompress e))
        (Option.map Point.compress (Point.decompress e)))
    (torsion @ noncanonical_encs)

(* Per category: cases, single-verify accepts, singleton-batch accepts,
   cases where single and batch verification disagree, and a digest of
   both verdict strings. A change to the validation rule must change
   these on purpose. *)
let pinned =
  [
    ("small-order", "279 cases, 9 single / 19 batch accepts, 18 split, verdicts cb3a116b3094c092");
    ("torsioned", "128 cases, 19 single / 20 batch accepts, 29 split, verdicts bbfeced7700c2565");
    ("honest", "8 cases, 8 single / 8 batch accepts, 0 split, verdicts 807ae5f38db47bff");
  ]

let test_corpus_verdicts () =
  let _, categories = Lazy.force corpus in
  List.iter
    (fun (name, cases) ->
      let s_lib = bits (single Eddsa.verify) cases and s_ref = bits (single Ref.Eddsa.verify) cases in
      let b_lib = bits (batch Eddsa.verify_batch) cases and b_ref = bits (batch Ref.Eddsa.verify_batch) cases in
      Alcotest.(check int) (name ^ ": verify mismatches") 0 (mismatches s_lib s_ref);
      (* the pinned digest covers the prepared path too: it is computed
         over the one-shot verdicts, which these must equal *)
      Alcotest.(check string) (name ^ ": verify_with = verify") s_lib (bits (single verify_prepared) cases);
      Alcotest.(check int) (name ^ ": verify_batch mismatches") 0 (mismatches b_lib b_ref);
      Alcotest.(check string) (name ^ ": pinned verdicts") (List.assoc name pinned)
        (Printf.sprintf "%d cases, %d single / %d batch accepts, %d split, verdicts %s" (List.length cases)
           (accepted s_lib) (accepted b_lib) (mismatches s_lib b_lib)
           (String.sub (BU.to_hex (Dsig_hashes.Sha256.digest (s_lib ^ b_lib))) 0 16)))
    categories

(* k hashes the key's bytes as given. The point y = 0 (order 4) also
   encodes as y = p; with R the identity and S = 0 a signature is
   accepted exactly when 4 divides k, so a message on which the two
   encodings disagree pins which bytes the prepared key hashes. *)
let test_noncanonical_key () =
  let canonical = String.make 32 '\x00' and noncanonical = Bn.to_bytes_le ~length:32 Ref.Fe25519.p in
  let identity = BU.of_hex "0100000000000000000000000000000000000000000000000000000000000000" in
  let signature = identity ^ s_bytes 0 in
  let vk = Option.get (Eddsa.verifying_key noncanonical) in
  Alcotest.(check string) "original bytes kept" (BU.to_hex noncanonical)
    (BU.to_hex (Eddsa.verifying_key_bytes vk));
  let msg =
    List.find
      (fun m -> Eddsa.verify noncanonical m signature && not (Eddsa.verify canonical m signature))
      (List.init 64 (Printf.sprintf "non-canonical key %d"))
  in
  Alcotest.(check bool) "reference agrees" true
    (Ref.Eddsa.verify noncanonical msg signature && not (Ref.Eddsa.verify canonical msg signature));
  Alcotest.(check bool) "verify_with accepts under y = p" true (Eddsa.verify_with vk msg signature);
  Alcotest.(check bool) "verify_with rejects under y = 0" false (verify_prepared canonical msg signature);
  List.iter
    (fun m ->
      Alcotest.(check bool) m (Eddsa.verify noncanonical m signature) (Eddsa.verify_with vk m signature))
    (List.init 16 (Printf.sprintf "non-canonical key %d"))

(* Mixed batches drawn from the whole corpus, seeded identically on both
   sides. *)
let batch_qcheck =
  let open QCheck in
  [
    Test.make ~name:"verify_batch = reference on mixed corpus batches" ~count:30
      (pair (list_of_size Gen.(0 -- 6) (int_bound 100_000)) int64)
      (fun (picks, seed) ->
        let all = Array.of_list (List.concat_map snd (snd (Lazy.force corpus))) in
        let b = List.map (fun i -> all.(i mod Array.length all)) picks in
        Eddsa.verify_batch (Dsig_util.Rng.create seed) b = Ref.Eddsa.verify_batch (Dsig_util.Rng.create seed) b);
  ]

let suites =
  [
    ( "ed25519.diff.point",
      Alcotest.test_case "base_mul = reference at the split's edges" `Quick test_base_mul_edges
      :: List.map (QCheck_alcotest.to_alcotest ~long:false) point_qcheck );
    ("ed25519.diff.scalar", List.map (QCheck_alcotest.to_alcotest ~long:false) scalar_qcheck);
    ("ed25519.diff.eddsa", List.map (QCheck_alcotest.to_alcotest ~long:false) eddsa_qcheck);
    ( "ed25519.corpus",
      [
        Alcotest.test_case "corpus shape" `Quick test_corpus_shape;
        Alcotest.test_case "decompress = reference" `Quick test_corpus_decompress;
        Alcotest.test_case "verdicts = reference, pinned" `Quick test_corpus_verdicts;
        Alcotest.test_case "prepared key hashes its original bytes" `Quick test_noncanonical_key;
      ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false) batch_qcheck );
  ]
