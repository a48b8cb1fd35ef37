open Dsig_hashes

let check_hex = Alcotest.(check string)

(* FIPS 180-4 known-answer tests; these validate the computed constants
   end to end. *)
let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  check_hex "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_incremental () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let one_shot = Sha256.digest msg in
  (* feed in ragged pieces *)
  List.iter
    (fun sizes ->
      let ctx = Sha256.init () in
      let off = ref 0 in
      List.iter
        (fun n ->
          let take = min n (String.length msg - !off) in
          Sha256.feed ctx (String.sub msg !off take);
          off := !off + take)
        sizes;
      Sha256.feed ctx (String.sub msg !off (String.length msg - !off));
      Alcotest.(check string) "incremental = one-shot" one_shot (Sha256.finalize ctx))
    [ [ 1000 ]; [ 1; 999 ]; [ 63; 64; 65; 100 ]; [ 500; 500 ]; List.init 100 (fun _ -> 10) ]

let test_sha2_constants () =
  (* Spot-check the computed constant tables against published values
     (FIPS 180-4 §4.2.2/§4.2.3): first and last round constants and the
     first initial hash value. *)
  Alcotest.(check int) "K256[0]" 0x428a2f98 Sha2_constants.k256.(0);
  Alcotest.(check int) "K256[1]" 0x71374491 Sha2_constants.k256.(1);
  Alcotest.(check int) "K256[63]" 0xc67178f2 Sha2_constants.k256.(63);
  Alcotest.(check int) "H256[0]" 0x6a09e667 Sha2_constants.h256.(0);
  Alcotest.(check int) "H256[7]" 0x5be0cd19 Sha2_constants.h256.(7);
  Alcotest.(check int64) "K512[0]" 0x428a2f98d728ae22L Sha2_constants.k512.(0);
  Alcotest.(check int64) "H512[0]" 0x6a09e667f3bcc908L Sha2_constants.h512.(0)

let test_sha512_vectors () =
  check_hex "abc"
    "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
    (Sha512.hex "abc");
  check_hex "empty"
    "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
    (Sha512.hex "")

let test_blake3_empty_prefix () =
  (* The first 11 bytes of BLAKE3("") are externally validated (official
     test vectors, recalled offline); a single compression produces the
     whole 32-byte output, so agreement on 88 bits implies the
     compression function and its inputs are correct. The full value is
     pinned as a golden regression vector. *)
  let d = Blake3.hex "" in
  check_hex "empty prefix (external)" "af1349b9f5f9a1a6a0404d" (String.sub d 0 22);
  check_hex "empty full (golden)"
    "af1349b9f5f9a1a6a0404dea36dcc9499bcb25c9adc112b7cc9a93cae41f3262" d

let test_blake3_structure () =
  (* XOF prefix property: a longer output extends a shorter one. *)
  let msg = "dsig reproduction" in
  let short = Blake3.digest ~length:32 msg in
  let long = Blake3.digest ~length:131 msg in
  check_hex "xof prefix" short (String.sub long 0 32);
  Alcotest.(check int) "xof length" 131 (String.length long);
  (* multi-chunk inputs exercise the tree *)
  let big = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  Alcotest.(check int) "big ok" 32 (String.length (Blake3.digest big));
  (* chunk-boundary sensitivity *)
  let a = Blake3.digest (String.make 1024 'x') in
  let b = Blake3.digest (String.make 1025 'x') in
  Alcotest.(check bool) "boundary differs" false (a = b)

(* Known answers pinned before the compression rewrite: a two-chunk
   input (one parent node) and a three-chunk input whose last chunk is
   one byte (two parent nodes), hashed at the default and an extended
   output length. *)
let test_blake3_multichunk_kat () =
  let msg n = String.init n (fun i -> Char.chr ((i * 31) land 0xff)) in
  List.iter
    (fun (n, d32, d80) ->
      let m = msg n in
      check_hex (Printf.sprintf "%d B" n) d32 (Blake3.hex m);
      check_hex (Printf.sprintf "%d B, 80 B out" n) d80
        (Dsig_util.Bytesutil.to_hex (Blake3.digest ~length:80 m)))
    [
      ( 1256,
        "3d46819dcf4c4bf99fd524633bfc3fceb560a9b1529a1cbf078adef71685d930",
        "3d46819dcf4c4bf99fd524633bfc3fceb560a9b1529a1cbf078adef71685d930\
         3f46d4cbef0f27ce6d2f17ee865d04d59bca4193119a7305e674958385960e3c\
         cdf461238c575f5b670ac8db31c74fbd" );
      ( 2049,
        "d1d78414d6d44536fe826752c59a7a35898a6ae1d3102cfee19e7f211358c0b5",
        "d1d78414d6d44536fe826752c59a7a35898a6ae1d3102cfee19e7f211358c0b5\
         1f783df61bb69ac136347c7d14238edef3ed8bbd06c94ad7dcaba0763821653d\
         619438d382bb24db20284dba8a21bc8a" );
    ]

let test_blake3_modes () =
  let key = String.make 32 'k' in
  let plain = Blake3.digest "msg" in
  let keyed = Blake3.keyed ~key "msg" in
  let derived = Blake3.derive_key ~context:"dsig test" "msg" in
  Alcotest.(check bool) "keyed differs" false (plain = keyed);
  Alcotest.(check bool) "derive differs" false (plain = derived);
  Alcotest.(check bool) "derive/keyed differ" false (keyed = derived);
  Alcotest.check_raises "bad key size" (Invalid_argument "Blake3: key must be 32 bytes")
    (fun () -> ignore (Blake3.keyed ~key:"short" "msg"));
  Alcotest.check_raises "digest_into input range"
    (Invalid_argument "Blake3.digest_into: input out of range") (fun () ->
      Blake3.digest_into (Bytes.create 4) ~off:2 ~len:3 (Bytes.create 32) ~dst_off:0);
  Alcotest.check_raises "digest_into output range"
    (Invalid_argument "Blake3.digest_into: output out of range") (fun () ->
      Blake3.digest_into (Bytes.create 4) ~off:0 ~len:4 (Bytes.create 32) ~dst_off:1)

let test_aes_sbox () =
  (* Published S-box spot values (FIPS 197 figure 7). *)
  Alcotest.(check int) "S(0x00)" 0x63 Aes_core.sbox.(0x00);
  Alcotest.(check int) "S(0x01)" 0x7c Aes_core.sbox.(0x01);
  Alcotest.(check int) "S(0x53)" 0xed Aes_core.sbox.(0x53);
  Alcotest.(check int) "S(0xff)" 0x16 Aes_core.sbox.(0xff);
  (* S-box is a permutation *)
  let seen = Array.make 256 false in
  Array.iter (fun v -> seen.(v) <- true) Aes_core.sbox;
  Alcotest.(check bool) "permutation" true (Array.for_all Fun.id seen)

let test_gf_mul () =
  (* Example from FIPS 197 §4.2: {57} x {83} = {c1} *)
  Alcotest.(check int) "57*83" 0xc1 (Aes_core.gf_mul 0x57 0x83);
  Alcotest.(check int) "57*13" 0xfe (Aes_core.gf_mul 0x57 0x13)

let test_haraka_shapes () =
  let x32 = String.init 32 Char.chr and x64 = String.init 64 Char.chr in
  Alcotest.(check int) "h256 out" 32 (String.length (Haraka.haraka256 x32));
  Alcotest.(check int) "h512 out" 32 (String.length (Haraka.haraka512 x64));
  Alcotest.(check bool) "h256 deterministic" true
    (Haraka.haraka256 x32 = Haraka.haraka256 x32);
  Alcotest.check_raises "h256 size" (Invalid_argument "Haraka.haraka256: input must be 32 bytes")
    (fun () -> ignore (Haraka.haraka256 "short"));
  Alcotest.(check int) "40 round constants" 40 (Array.length Haraka.round_constants)

(* Known answers pinned from the string-round implementation; the
   construction is a documented reconstruction (see haraka.mli), so these
   are regression vectors, not external ones. *)
let test_haraka_kat () =
  let hex = Dsig_util.Bytesutil.to_hex in
  let iota n = String.init n Char.chr in
  check_hex "h256 iota" "e9fc24c6d5decd57a4104f0ce26535be9445335ea7e46c1b6748071459320355"
    (hex (Haraka.haraka256 (iota 32)));
  check_hex "h256 zero" "a9d564ea17d541051aca04a7c42899e02a3e79bc839747263fc3cbad8d7a9187"
    (hex (Haraka.haraka256 (String.make 32 '\x00')));
  check_hex "h512 iota" "0e2da5301da8142b230e92a0439b7818a2227b1c4edbe81780d8d51e82978b7c"
    (hex (Haraka.haraka512 (iota 64)));
  check_hex "h512 zero" "7a0c06f95df03facadaeb761226cee1c3e27347b5781ad6f2286c16e783f3204"
    (hex (Haraka.haraka512 (String.make 64 '\x00')));
  check_hex "digest 3 B to 18 B" "cc080c26c931d34f7d1a72aaf5a6633cd20f"
    (hex (Hash.digest Hash.Haraka ~length:18 "abc"));
  check_hex "digest 40 B to 40 B"
    "d66a844553ad3b7e93a14fe5cfe9ad10b62fd1473c1ab9a3dffd8da340488d0adda79d5eeaa7beda"
    (hex (Hash.digest Hash.Haraka ~length:40 (String.make 40 'h')));
  check_hex "digest 100 B" "c1cae7d98c45c6572bc4c3aba0fdfda435bf44b23bd14004c8c1d30940acc3d5"
    (hex (Hash.digest Hash.Haraka (String.make 100 'h')))

let test_blake3_incremental () =
  (* incremental = one-shot across chunk/block boundaries and feeding
     patterns, plain and keyed *)
  let sizes = [ 0; 1; 63; 64; 65; 1023; 1024; 1025; 2048; 3000; 5000 ] in
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr ((i * 7) mod 251)) in
      let one_shot = Blake3.digest ~length:47 msg in
      List.iter
        (fun piece ->
          let inc = Blake3.Incremental.create () in
          let off = ref 0 in
          while !off < n do
            let take = min piece (n - !off) in
            Blake3.Incremental.feed inc (String.sub msg !off take);
            off := !off + take
          done;
          Alcotest.(check string)
            (Printf.sprintf "n=%d piece=%d" n piece)
            one_shot
            (Blake3.Incremental.finalize ~length:47 inc))
        [ 1; 13; 64; 1000; 4096 ])
    sizes;
  (* keyed mode *)
  let key = String.init 32 Char.chr in
  let msg = String.make 3333 'k' in
  let inc = Blake3.Incremental.create ~key () in
  Blake3.Incremental.feed inc (String.sub msg 0 100);
  Blake3.Incremental.feed inc (String.sub msg 100 3233);
  Alcotest.(check string) "keyed incremental" (Blake3.keyed ~key msg)
    (Blake3.Incremental.finalize inc);
  (* double finalize rejected *)
  let inc = Blake3.Incremental.create () in
  ignore (Blake3.Incremental.finalize inc);
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Blake3.Incremental.finalize: already finalized") (fun () ->
      ignore (Blake3.Incremental.finalize inc))

let qcheck_tests =
  let open QCheck in
  let string_n n = string_of_size (Gen.return n) in
  [
    Test.make ~name:"T-table round = naive round" ~count:200
      (pair (string_n 16) (string_n 16))
      (fun (input, rc) ->
        (* the in-place round touches only its four words, and reads
           its key at an offset *)
        let st = Aes_core.state_of_string input 0 in
        let words = Array.concat [ [| 7 |]; st; [| 9 |] ] in
        Aes_core.round words 1 ~rk:(Array.append [| 0; 0 |] (Aes_core.state_of_string rc 0)) 2;
        words = Array.concat [ [| 7 |]; Aes_core.round_naive st ~rc; [| 9 |] ]);
    Test.make ~name:"gf_mul distributes" ~count:300 (triple (int_bound 255) (int_bound 255) (int_bound 255))
      (fun (a, b, c) ->
        Aes_core.gf_mul a (b lxor c) = Aes_core.gf_mul a b lxor Aes_core.gf_mul a c);
    Test.make ~name:"state string roundtrip" ~count:200 (string_n 16) (fun s ->
        Aes_core.string_of_state (Aes_core.state_of_string s 0) = s);
    Test.make ~name:"haraka256 avalanche" ~count:100 (pair (string_n 32) (int_bound 255))
      (fun (s, bitpos) ->
        let flipped =
          String.mapi
            (fun i c ->
              if i = bitpos / 8 then Char.chr (Char.code c lxor (1 lsl (bitpos mod 8))) else c)
            s
        in
        Haraka.haraka256 s <> Haraka.haraka256 flipped);
    (* Differential tests against the reference kernels in Ref_kernels. *)
    Test.make ~name:"haraka256 = reference" ~count:500 (string_n 32) (fun s ->
        Haraka.haraka256 s = Ref_kernels.Haraka.haraka256 s);
    Test.make ~name:"haraka512 = reference" ~count:300 (string_n 64) (fun s ->
        Haraka.haraka512 s = Ref_kernels.Haraka.haraka512 s);
    Test.make ~name:"haraka digest = reference" ~count:300
      (pair (string_of_size Gen.(0 -- 100)) (int_range 1 100))
      (fun (s, length) ->
        Hash.digest Hash.Haraka ~length s = Ref_kernels.Hash.digest Hash.Haraka ~length s);
    Test.make ~name:"blake3 modes = reference" ~count:60
      (triple (string_of_size Gen.(0 -- ((3 * 1024) + 1))) (string_n 32) (int_range 1 200))
      (fun (msg, key, length) ->
        let module R = Ref_kernels.Blake3 in
        Blake3.digest msg = R.digest msg
        && Blake3.digest ~length msg = R.digest ~length msg
        && Blake3.keyed ~key ~length msg = R.keyed ~key ~length msg
        && Blake3.derive_key ~context:key ~length msg = R.derive_key ~context:key ~length msg);
    Test.make ~name:"blake3 digest_into = digest" ~count:60
      (triple (string_of_size Gen.(0 -- 2100)) (pair small_nat small_nat) (int_range 1 100))
      (fun (s, (a, b), length) ->
        (* a slice of [s], digested into a buffer that also holds the
           input: the output overwrites the input's start *)
        let off = min a (String.length s) in
        let len = min b (String.length s - off) in
        let buf = Bytes.of_string s in
        let dst = Bytes.cat buf (Bytes.make length '\x00') in
        Blake3.digest_into ~length dst ~off ~len dst ~dst_off:off;
        Bytes.sub_string dst off length = Blake3.digest ~length (String.sub s off len));
    Test.make ~name:"sha256 incremental = one-shot" ~count:50
      (pair (string_of_size Gen.(0 -- 300)) (string_of_size Gen.(0 -- 300)))
      (fun (a, b) ->
        let ctx = Sha256.init () in
        Sha256.feed ctx a;
        Sha256.feed ctx b;
        Sha256.finalize ctx = Sha256.digest (a ^ b));
    Test.make ~name:"blake3 incremental random splits" ~count:60
      (pair (string_of_size Gen.(0 -- 4000)) (list_of_size (Gen.int_range 1 8) (int_range 1 999)))
      (fun (msg, cuts) ->
        let inc = Blake3.Incremental.create () in
        let off = ref 0 in
        List.iter
          (fun c ->
            let take = min c (String.length msg - !off) in
            if take > 0 then begin
              Blake3.Incremental.feed inc (String.sub msg !off take);
              off := !off + take
            end)
          cuts;
        Blake3.Incremental.feed inc (String.sub msg !off (String.length msg - !off));
        Blake3.Incremental.finalize inc = Blake3.digest msg);
    Test.make ~name:"blake3 xof prefix property" ~count:50
      (pair (string_of_size Gen.(0 -- 2000)) (pair (int_range 1 64) (int_range 1 64)))
      (fun (s, (l1, l2)) ->
        let lo = min l1 l2 and hi = max l1 l2 in
        String.sub (Blake3.digest ~length:hi s) 0 lo = Blake3.digest ~length:lo s);
    Test.make ~name:"hash algos injective-ish on small inputs" ~count:100
      (pair (string_of_size Gen.(0 -- 40)) (string_of_size Gen.(0 -- 40)))
      (fun (a, b) ->
        QCheck.assume (a <> b);
        List.for_all (fun algo -> Hash.digest algo a <> Hash.digest algo b) Hash.all);
    Test.make ~name:"hash output length honored" ~count:60
      (pair (string_of_size Gen.(0 -- 100)) (int_range 1 100))
      (fun (s, n) ->
        List.for_all (fun algo -> String.length (Hash.digest algo ~length:n s) = n) Hash.all);
    Test.make ~name:"hash truncation consistent" ~count:60 (string_of_size Gen.(0 -- 100))
      (fun s ->
        List.for_all
          (fun algo ->
            Hash.digest algo ~length:18 s = String.sub (Hash.digest algo ~length:32 s) 0 18)
          Hash.all);
  ]

let suites =
  [
    ( "hashes",
      [
        Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
        Alcotest.test_case "sha2 constants" `Quick test_sha2_constants;
        Alcotest.test_case "sha512 vectors" `Quick test_sha512_vectors;
        Alcotest.test_case "blake3 empty prefix" `Quick test_blake3_empty_prefix;
        Alcotest.test_case "blake3 structure" `Quick test_blake3_structure;
        Alcotest.test_case "blake3 modes" `Quick test_blake3_modes;
        Alcotest.test_case "blake3 incremental" `Quick test_blake3_incremental;
        Alcotest.test_case "blake3 multi-chunk known answers" `Quick test_blake3_multichunk_kat;
        Alcotest.test_case "aes sbox" `Quick test_aes_sbox;
        Alcotest.test_case "gf_mul" `Quick test_gf_mul;
        Alcotest.test_case "haraka shapes" `Quick test_haraka_shapes;
        Alcotest.test_case "haraka known answers" `Quick test_haraka_kat;
      ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests );
  ]
