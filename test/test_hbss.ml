open Dsig_hbss
module Hash = Dsig_hashes.Hash

let seed c = String.make 32 c
let nonce c = String.make 16 c

(* --- parameter math pinned to the paper's Table 2 --- *)

let test_wots_params () =
  (* (d, l1, l2, keygen hashes, expected verify hashes) from §5.2 *)
  List.iter
    (fun (d, l1, l2, kg, ev) ->
      let p = Params.Wots.make ~d () in
      let name s = Printf.sprintf "d=%d %s" d s in
      Alcotest.(check int) (name "l1") l1 p.Params.Wots.l1;
      Alcotest.(check int) (name "l2") l2 p.Params.Wots.l2;
      Alcotest.(check int) (name "keygen") kg (Params.Wots.keygen_hashes p);
      Alcotest.(check (float 0.6)) (name "verify") ev (Params.Wots.expected_verify_hashes p);
      Alcotest.(check bool) (name "128-bit secure") true (Params.Wots.security_bits p >= 128.0))
    [
      (2, 128, 8, 136, 68.0);
      (4, 64, 4, 204, 102.0);
      (8, 43, 3, 322, 161.0);
      (16, 32, 3, 525, 262.5);
      (32, 26, 2, 868, 434.0);
    ];
  (* paper §4.3: d=4 with 144-bit elements gives ~133.9 bits *)
  let p4 = Params.Wots.make ~d:4 () in
  Alcotest.(check (float 1.0)) "d=4 security" 133.9 (Params.Wots.security_bits p4);
  Alcotest.(check int) "d=4 sig bytes" (68 * 18) (Params.Wots.signature_bytes p4)

let test_hors_params () =
  (* (k, t) pairs implied by Table 2's key sizes *)
  List.iter
    (fun (k, t) ->
      let p = Params.Hors.make ~k () in
      Alcotest.(check int) (Printf.sprintf "k=%d t" k) t p.Params.Hors.t;
      Alcotest.(check bool) (Printf.sprintf "k=%d secure" k) true
        (Params.Hors.security_bits p >= 128.0))
    [ (8, 1 lsl 19); (16, 4096); (32, 512); (64, 256) ];
  let p64 = Params.Hors.make ~k:64 () in
  Alcotest.(check int) "k=64 pk bytes" 4096 (Params.Hors.public_key_bytes p64)

(* --- bits --- *)

let test_bits () =
  (* 0b10110100 11110000 *)
  let s = "\xb4\xf0" in
  Alcotest.(check int) "first 3" 0b101 (Bits.get s ~pos:0 ~len:3);
  Alcotest.(check int) "mid 5" 0b10100 (Bits.get s ~pos:3 ~len:5);
  Alcotest.(check int) "cross byte" 0b0011 (Bits.get s ~pos:6 ~len:4);
  Alcotest.(check int) "zero len" 0 (Bits.get s ~pos:5 ~len:0);
  Alcotest.(check (array int)) "digits" [| 0b10; 0b11; 0b01; 0b00 |]
    (Bits.digits s ~width:2 ~count:4);
  Alcotest.check_raises "oob" (Invalid_argument "Bits.get: out of range") (fun () ->
      ignore (Bits.get s ~pos:10 ~len:8))

(* --- W-OTS+ --- *)

let wots_p = Params.Wots.make ~d:4 ()

let test_wots_roundtrip () =
  List.iter
    (fun hash ->
      let kp = Wots.generate ~hash wots_p ~seed:(seed 'a') in
      let msg = "the quick brown fox" in
      let s = Wots.sign kp ~nonce:(nonce 'n') msg in
      Alcotest.(check bool)
        (Hash.to_string hash ^ " verifies")
        true
        (Wots.verify ~hash wots_p ~public_seed:(Wots.public_seed kp)
           ~pk_digest:(Wots.public_key_digest kp) s msg))
    Hash.all

let test_wots_deterministic () =
  let kp1 = Wots.generate wots_p ~seed:(seed 'x') in
  let kp2 = Wots.generate wots_p ~seed:(seed 'x') in
  Alcotest.(check string) "same pk digest" (Wots.public_key_digest kp1)
    (Wots.public_key_digest kp2);
  let kp3 = Wots.generate wots_p ~seed:(seed 'y') in
  Alcotest.(check bool) "different seed, different pk" false
    (Wots.public_key_digest kp1 = Wots.public_key_digest kp3)

let test_wots_no_cache_matches_cache () =
  let kp1 = Wots.generate ~cache_chains:true wots_p ~seed:(seed 'q') in
  let kp2 = Wots.generate ~cache_chains:false wots_p ~seed:(seed 'q') in
  let msg = "cache equivalence" in
  let s1 = Wots.sign kp1 ~nonce:(nonce '0') msg in
  let s2 = Wots.sign kp2 ~nonce:(nonce '0') msg in
  Alcotest.(check bool) "identical signatures" true (s1 = s2)

(* A key keeps its public elements only inside its chain material; with
   or without the chain cache they are what a signature recovers. *)
let test_wots_public_elements () =
  List.iter
    (fun cache_chains ->
      let kp = Wots.generate ~cache_chains wots_p ~seed:(seed 'e') in
      let msg = "public elements" in
      let s = Wots.sign kp ~nonce:(nonce '3') msg in
      Alcotest.(check (array string))
        (Printf.sprintf "cache_chains=%b" cache_chains)
        (Wots.recover_public_elements wots_p ~public_seed:(Wots.public_seed kp) s msg)
        (Wots.public_elements kp))
    [ true; false ]

let test_wots_one_time () =
  let kp = Wots.generate wots_p ~seed:(seed 'z') in
  ignore (Wots.sign kp ~nonce:(nonce '1') "first");
  Alcotest.check_raises "reuse" (Invalid_argument "Wots.sign: one-time key already used")
    (fun () -> ignore (Wots.sign kp ~nonce:(nonce '2') "second"))

let test_wots_rejects () =
  let kp = Wots.generate wots_p ~seed:(seed 'r') in
  let ps = Wots.public_seed kp and pd = Wots.public_key_digest kp in
  let msg = "genuine" in
  let s = Wots.sign kp ~nonce:(nonce 'n') msg in
  Alcotest.(check bool) "wrong msg" false (Wots.verify wots_p ~public_seed:ps ~pk_digest:pd s "forged");
  Alcotest.(check bool) "wrong digest" false
    (Wots.verify wots_p ~public_seed:ps ~pk_digest:(String.make 32 '!') s msg);
  Alcotest.(check bool) "wrong public seed" false
    (Wots.verify wots_p ~public_seed:(String.make 32 '?') ~pk_digest:pd s msg);
  let n = wots_p.Params.Wots.n in
  let tampered =
    (* every byte of element 7 flipped *)
    { s with
      Wots.elements =
        String.mapi
          (fun i c -> if i / n = 7 then Char.chr (Char.code c lxor 1) else c)
          s.Wots.elements
    }
  in
  Alcotest.(check bool) "tampered element" false
    (Wots.verify wots_p ~public_seed:ps ~pk_digest:pd tampered msg);
  let short = { s with Wots.elements = String.sub s.Wots.elements 0 (10 * n) } in
  Alcotest.(check bool) "short" false (Wots.verify wots_p ~public_seed:ps ~pk_digest:pd short msg)

(* Recovery reads the elements at unchecked offsets, so it checks the
   lengths itself: a short last element or a short nonce raises instead
   of yielding a digest. *)
let test_wots_recover_lengths () =
  let kp = Wots.generate wots_p ~seed:(seed 'L') in
  let ps = Wots.public_seed kp and pd = Wots.public_key_digest kp in
  let msg = "lengths" in
  let s = Wots.sign kp ~nonce:(nonce 'n') msg in
  let len = String.length s.Wots.elements in
  let cases =
    [
      ("last element 17 bytes", { s with Wots.elements = String.sub s.Wots.elements 0 (len - 1) });
      ("last element 19 bytes", { s with Wots.elements = s.Wots.elements ^ "x" });
      ("5-byte nonce", { s with Wots.nonce = "12345" });
      ("17-byte nonce", { s with Wots.nonce = nonce 'n' ^ "x" });
    ]
  in
  List.iter
    (fun (name, bad) ->
      (match Wots.recover_public_key_digest wots_p ~public_seed:ps bad msg with
      | _ -> Alcotest.failf "%s: recovered a digest" name
      | exception Invalid_argument _ -> ());
      (match Wots.recover_public_elements wots_p ~public_seed:ps bad msg with
      | _ -> Alcotest.failf "%s: recovered elements" name
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) (name ^ ": verify") false
        (Wots.verify wots_p ~public_seed:ps ~pk_digest:pd bad msg))
    cases;
  Alcotest.(check bool) "genuine still verifies" true
    (Wots.verify wots_p ~public_seed:ps ~pk_digest:pd s msg)

let test_wots_cross_hash_rejects () =
  (* a signature chained with one hash must not verify under another *)
  let kp = Wots.generate ~hash:Hash.Haraka wots_p ~seed:(seed 'c') in
  let s = Wots.sign kp ~nonce:(nonce 'n') "cross" in
  Alcotest.(check bool) "haraka sig, blake3 verify" false
    (Wots.verify ~hash:Hash.Blake3 wots_p ~public_seed:(Wots.public_seed kp)
       ~pk_digest:(Wots.public_key_digest kp) s "cross");
  Alcotest.(check bool) "haraka sig, sha256 verify" false
    (Wots.verify ~hash:Hash.Sha256 wots_p ~public_seed:(Wots.public_seed kp)
       ~pk_digest:(Wots.public_key_digest kp) s "cross")

let test_wots_cross_params_rejects () =
  (* d=4 signature under a d=8 parameterization: element counts differ *)
  let kp = Wots.generate wots_p ~seed:(seed 'p') in
  let s = Wots.sign kp ~nonce:(nonce 'n') "params" in
  let p8 = Params.Wots.make ~d:8 () in
  Alcotest.(check bool) "wrong params" false
    (Wots.verify p8 ~public_seed:(Wots.public_seed kp)
       ~pk_digest:(Wots.public_key_digest kp) s "params")

(* Known answers pinned from the per-step-mask implementation, d = 4
   (the deployed parameter) and d = 16. The signature fingerprint is
   BLAKE3 of the concatenated elements of an uncached signature. *)
let test_wots_kat () =
  let hex = Dsig_util.Bytesutil.to_hex in
  List.iter
    (fun (d, pk, sig_fp) ->
      let p = Params.Wots.make ~d () in
      let name s = Printf.sprintf "d=%d %s" d s in
      let kp = Wots.generate ~cache_chains:false p ~seed:(seed 'k') in
      let s = Wots.sign kp ~nonce:(nonce 'n') "wots kat" in
      Alcotest.(check string) (name "pk digest") pk (hex (Wots.public_key_digest kp));
      Alcotest.(check string) (name "recovered digest") pk
        (hex (Wots.recover_public_key_digest p ~public_seed:(Wots.public_seed kp) s "wots kat"));
      Alcotest.(check string) (name "signature") sig_fp
        (hex (Dsig_hashes.Blake3.digest s.Wots.elements)))
    [
      ( 4,
        "9a78337bc73d9a7e5448e29594c60702d0ef9b46e10f44b00457974e24d1d687",
        "9000e15ab2e4c7f573f32ec2df97bebbccd6f7e05a54d6b50088b6ca041bee8d" );
      ( 16,
        "b7b7ed74d497451ca4b97f8ce5f66fc47a7aa5f9389e6773e5dd1a9c469a264f",
        "faf0361cc48a2e87713413a68c72078b1c8a8f653647013ddae5aae7bde97c55" );
    ]

let test_hors_forest_tree_counts () =
  (* trees = 4 vs 8: different roots, both verify within their layout *)
  let hors_p = Params.Hors.make ~k:16 () in
  let kp = Hors.generate hors_p ~seed:(seed 'f') in
  let f4 = Dsig_merkle.Merkle.Forest.build ~trees:4 (Hors.public_elements kp) in
  let f8 = Hors.forest ~trees:8 kp in
  Alcotest.(check int) "4 roots" 4 (List.length (Dsig_merkle.Merkle.Forest.roots f4));
  Alcotest.(check bool) "layouts differ" true
    (Dsig_merkle.Merkle.Forest.roots f4 <> Dsig_merkle.Merkle.Forest.roots f8);
  let msg = "layout" in
  let s = Hors.sign kp ~nonce:(nonce 't') msg in
  let indices = Hors.message_indices hors_p ~public_seed:(Hors.public_seed kp) ~nonce:(nonce 't') msg in
  let proofs4 = Array.map (fun i -> Dsig_merkle.Merkle.Forest.proof f4 i) indices in
  Alcotest.(check bool) "verifies under 4-tree layout" true
    (Hors.verify_with_forest hors_p ~public_seed:(Hors.public_seed kp)
       ~roots:(Dsig_merkle.Merkle.Forest.roots f4) ~proofs:proofs4 s msg);
  (* proofs from one layout never verify against the other's roots *)
  Alcotest.(check bool) "cross-layout rejected" false
    (Hors.verify_with_forest hors_p ~public_seed:(Hors.public_seed kp)
       ~roots:(Dsig_merkle.Merkle.Forest.roots f8) ~proofs:proofs4 s msg)

let test_wots_sizes () =
  Alcotest.(check int) "d=4 wire" (16 + 1224) (Wots.signature_wire_bytes wots_p);
  let kp = Wots.generate wots_p ~seed:(seed 's') in
  Alcotest.(check int) "68 elements" 68 (Array.length (Wots.public_elements kp));
  Array.iter
    (fun e -> Alcotest.(check int) "18-byte element" 18 (String.length e))
    (Wots.public_elements kp)

(* --- HORS --- *)

let hors_p = Params.Hors.make ~k:16 ()

let test_hors_roundtrip () =
  let kp = Hors.generate hors_p ~seed:(seed 'h') in
  let msg = "hors de combat" in
  let s = Hors.sign kp ~nonce:(nonce 'n') msg in
  Alcotest.(check bool) "full-pk verify" true
    (Hors.verify_with_elements hors_p ~public_seed:(Hors.public_seed kp)
       ~elements:(Hors.public_elements kp) s msg);
  Alcotest.(check bool) "wrong msg" false
    (Hors.verify_with_elements hors_p ~public_seed:(Hors.public_seed kp)
       ~elements:(Hors.public_elements kp) s "other")

let test_hors_merklified () =
  let kp = Hors.generate hors_p ~seed:(seed 'm') in
  let msg = "merklified" in
  let s = Hors.sign kp ~nonce:(nonce 'p') msg in
  let f = Hors.forest kp in
  let roots = Dsig_merkle.Merkle.Forest.roots f in
  let indices = Hors.message_indices hors_p ~public_seed:(Hors.public_seed kp) ~nonce:(nonce 'p') msg in
  let proofs = Array.map (fun idx -> Dsig_merkle.Merkle.Forest.proof f idx) indices in
  Alcotest.(check bool) "forest verify" true
    (Hors.verify_with_forest hors_p ~public_seed:(Hors.public_seed kp) ~roots ~proofs s msg);
  Alcotest.(check bool) "forest wrong msg" false
    (Hors.verify_with_forest hors_p ~public_seed:(Hors.public_seed kp) ~roots ~proofs s "x");
  (* proof for the wrong position must fail even with a valid element *)
  let rotated = Array.init (Array.length proofs) (fun i -> proofs.((i + 1) mod Array.length proofs)) in
  Alcotest.(check bool) "rotated proofs" false
    (Hors.verify_with_forest hors_p ~public_seed:(Hors.public_seed kp) ~roots ~proofs:rotated s msg)

let test_hors_deduced () =
  let kp = Hors.generate hors_p ~seed:(seed 'd') in
  let msg = "deduce me" in
  let s = Hors.sign kp ~nonce:(nonce 'q') msg in
  let deduced = Hors.deduced_elements hors_p ~public_seed:(Hors.public_seed kp) s msg in
  let pk = Hors.public_elements kp in
  Array.iter
    (fun (idx, elt) -> Alcotest.(check string) "deduced matches pk" pk.(idx) elt)
    deduced

(* The factorized body's two halves: [complement] omits exactly the
   selected indices, and [recover_public_key_digest] rebuilds the key's
   digest from it, refusing a complement of the wrong length and two
   revealed secrets on one index that hash differently. k = 64 over
   t = 256 makes a repeated index easy to find. *)
let test_hors_recover_digest () =
  let p = Params.Hors.make ~k:64 () in
  let kp = Hors.generate p ~seed:(seed 'c') in
  let public_seed = Hors.public_seed kp and nonce = nonce 'c' in
  let indices msg = Hors.message_indices p ~public_seed ~nonce msg in
  let distinct msg = List.length (List.sort_uniq compare (Array.to_list (indices msg))) in
  let msg =
    List.find (fun m -> distinct m < p.Params.Hors.k) (List.init 100 (Printf.sprintf "dup %d"))
  in
  let s = Hors.sign kp ~nonce msg in
  let complement = Hors.complement kp s msg in
  let recover s complement = Hors.recover_public_key_digest p ~public_seed s ~complement msg in
  Alcotest.(check int) "complement fills the rest" (p.Params.Hors.t - distinct msg)
    (Array.length complement);
  Alcotest.(check (option string)) "genuine" (Some (Hors.public_key_digest kp)) (recover s complement);
  let n = Array.length complement in
  Alcotest.(check (option string)) "short complement" None (recover s (Array.sub complement 1 (n - 1)));
  Alcotest.(check (option string)) "long complement" None
    (recover s (Array.append complement [| complement.(0) |]));
  let idx = indices msg and k = p.Params.Hors.k in
  let _, j2 =
    List.find
      (fun (j, j') -> j < j' && idx.(j) = idx.(j'))
      (List.concat (List.init k (fun j -> List.init k (fun j' -> (j, j')))))
  in
  let revealed = Array.copy s.Hors.revealed in
  revealed.(j2) <- String.make p.Params.Hors.n 'x';
  Alcotest.(check (option string)) "conflicting secrets on one index" None
    (recover { s with Hors.revealed } complement)

let test_hors_one_time () =
  let kp = Hors.generate hors_p ~seed:(seed 'o') in
  ignore (Hors.sign kp ~nonce:(nonce '1') "a");
  Alcotest.check_raises "reuse" (Invalid_argument "Hors.sign: one-time key already used")
    (fun () -> ignore (Hors.sign kp ~nonce:(nonce '2') "b"))

(* --- Lamport --- *)

let test_lamport () =
  let kp = Lamport.generate ~seed:(seed 'l') () in
  let msg = "lamport 1979" in
  let s = Lamport.sign kp msg in
  Alcotest.(check bool) "verifies" true
    (Lamport.verify ~elements:(Lamport.public_elements kp) s msg);
  Alcotest.(check bool) "wrong msg" false
    (Lamport.verify ~elements:(Lamport.public_elements kp) s "lamport 1978");
  Alcotest.(check int) "sig size" 8192 Lamport.signature_bytes;
  Alcotest.check_raises "reuse" (Invalid_argument "Lamport.sign: one-time key already used")
    (fun () -> ignore (Lamport.sign kp "again"))

(* --- property tests --- *)

let qcheck_tests =
  let open QCheck in
  let msg_gen = string_of_size Gen.(0 -- 100) in
  [
    Test.make ~name:"wots sign/verify all d" ~count:20
      (pair (oneofl [ 2; 4; 8; 16 ]) msg_gen)
      (fun (d, msg) ->
        let p = Params.Wots.make ~d () in
        let rng = Dsig_util.Rng.create (Int64.of_int (Hashtbl.hash (d, msg))) in
        let kp = Wots.generate p ~seed:(Dsig_util.Rng.bytes rng 32) in
        let s = Wots.sign kp ~nonce:(Dsig_util.Rng.bytes rng 16) msg in
        Wots.verify p ~public_seed:(Wots.public_seed kp)
          ~pk_digest:(Wots.public_key_digest kp) s msg);
    Test.make ~name:"wots rejects bit flips" ~count:25 (pair msg_gen (int_range 0 10_000))
      (fun (msg, salt) ->
        let rng = Dsig_util.Rng.create (Int64.of_int salt) in
        let kp = Wots.generate wots_p ~seed:(Dsig_util.Rng.bytes rng 32) in
        let s = Wots.sign kp ~nonce:(Dsig_util.Rng.bytes rng 16) msg in
        let n = wots_p.Params.Wots.n in
        let i = salt mod wots_p.Params.Wots.l in
        let bit = 1 lsl (salt mod 8) in
        let tampered =
          (* the first byte of element i *)
          { s with
            Wots.elements =
              String.mapi (fun k c -> if k = i * n then Char.chr (Char.code c lxor bit) else c) s.Wots.elements
          }
        in
        not
          (Wots.verify wots_p ~public_seed:(Wots.public_seed kp)
             ~pk_digest:(Wots.public_key_digest kp) tampered msg));
    Test.make ~name:"wots checksum guards increment attacks" ~count:30 msg_gen (fun msg ->
        (* Raising one message digit requires lowering the checksum, so
           simply advancing a revealed element along its chain must not
           verify. We emulate the textbook attack: shift every element
           one step forward. *)
        let rng = Dsig_util.Rng.create 4242L in
        let kp = Wots.generate wots_p ~seed:(Dsig_util.Rng.bytes rng 32) in
        let s = Wots.sign kp ~nonce:(Dsig_util.Rng.bytes rng 16) msg in
        let forged_msg = msg ^ "!" in
        not
          (Wots.verify wots_p ~public_seed:(Wots.public_seed kp)
             ~pk_digest:(Wots.public_key_digest kp) s forged_msg));
    (* Differential tests against the per-step-mask W-OTS+ in Ref_kernels. *)
    Test.make ~name:"wots keygen = reference" ~count:16
      (triple (oneofl [ 2; 4; 8; 16 ]) (oneofl [ 16; 18; 31; 32 ]) (string_of_size (Gen.return 32)))
      (fun (d, n, sd) ->
        let p = Params.Wots.make ~n ~d () in
        Wots.public_key_digest (Wots.generate p ~seed:sd)
        = Ref_kernels.Wots.public_key_digest p ~seed:sd);
    Test.make ~name:"wots uncached sign = reference" ~count:24
      (triple
         (pair (oneofl [ 2; 4; 8; 16 ]) (oneofl [ 16; 18; 31; 32 ]))
         (string_of_size (Gen.return 32)) msg_gen)
      (fun ((d, n), sd, msg) ->
        let p = Params.Wots.make ~n ~d () in
        let nonce = String.sub sd 0 16 in
        let kp = Wots.generate ~cache_chains:false p ~seed:sd in
        (Wots.sign kp ~nonce msg).Wots.elements
        = String.concat "" (Array.to_list (Ref_kernels.Wots.sign p ~seed:sd ~nonce msg)));
    Test.make ~name:"wots recover = reference" ~count:60
      (quad
         (pair (oneofl [ 2; 4; 8; 16 ]) (oneofl [ 16; 18; 31; 32 ]))
         (string_of_size (Gen.return 32)) (int_range 0 10_000) msg_gen)
      (fun ((d, n), public_seed, salt, msg) ->
        (* arbitrary elements, not only genuine signatures: recovery
           must agree on every input. n = 16 and 32 end on a word
           boundary, 18 and 31 inside a word, and 32 has no length tag. *)
        let p = Params.Wots.make ~n ~d () in
        let rng = Dsig_util.Rng.create (Int64.of_int salt) in
        let nonce = Dsig_util.Rng.bytes rng 16 in
        let elements = Array.init p.Params.Wots.l (fun _ -> Dsig_util.Rng.bytes rng p.Params.Wots.n) in
        let s = { Wots.nonce; elements = String.concat "" (Array.to_list elements) } in
        Wots.recover_public_elements p ~public_seed s msg
        = Ref_kernels.Wots.recover_public_elements p ~public_seed ~nonce elements msg);
    Test.make ~name:"hors sign/verify all k" ~count:12
      (pair (oneofl [ 16; 32; 64 ]) msg_gen)
      (fun (k, msg) ->
        let p = Params.Hors.make ~k () in
        let rng = Dsig_util.Rng.create (Int64.of_int (Hashtbl.hash (k, msg))) in
        let kp = Hors.generate p ~seed:(Dsig_util.Rng.bytes rng 32) in
        let s = Hors.sign kp ~nonce:(Dsig_util.Rng.bytes rng 16) msg in
        Hors.verify_with_elements p ~public_seed:(Hors.public_seed kp)
          ~elements:(Hors.public_elements kp) s msg);
    Test.make ~name:"hors indices within range" ~count:50 (pair msg_gen (int_range 0 1000))
      (fun (msg, salt) ->
        let idx =
          Hors.message_indices hors_p ~public_seed:(seed 'i')
            ~nonce:(Dsig_util.Rng.bytes (Dsig_util.Rng.create (Int64.of_int salt)) 16)
            msg
        in
        Array.length idx = hors_p.Params.Hors.k
        && Array.for_all (fun i -> i >= 0 && i < hors_p.Params.Hors.t) idx);
    Test.make ~name:"lamport roundtrip" ~count:10 msg_gen (fun msg ->
        let rng = Dsig_util.Rng.create (Int64.of_int (Hashtbl.hash msg)) in
        let kp = Lamport.generate ~seed:(Dsig_util.Rng.bytes rng 32) () in
        Lamport.verify ~elements:(Lamport.public_elements kp) (Lamport.sign kp msg) msg);
  ]

let suites =
  [
    ( "hbss.params",
      [
        Alcotest.test_case "wots table2" `Quick test_wots_params;
        Alcotest.test_case "hors table2" `Quick test_hors_params;
        Alcotest.test_case "bits" `Quick test_bits;
      ] );
    ( "hbss.wots",
      [
        Alcotest.test_case "roundtrip (all hashes)" `Quick test_wots_roundtrip;
        Alcotest.test_case "deterministic" `Quick test_wots_deterministic;
        Alcotest.test_case "cache equivalence" `Quick test_wots_no_cache_matches_cache;
        Alcotest.test_case "public elements = recovered" `Quick test_wots_public_elements;
        Alcotest.test_case "one-time enforcement" `Quick test_wots_one_time;
        Alcotest.test_case "rejections" `Quick test_wots_rejects;
        Alcotest.test_case "recovery checks input lengths" `Quick test_wots_recover_lengths;
        Alcotest.test_case "sizes" `Quick test_wots_sizes;
        Alcotest.test_case "cross-hash rejected" `Quick test_wots_cross_hash_rejects;
        Alcotest.test_case "cross-params rejected" `Quick test_wots_cross_params_rejects;
        Alcotest.test_case "known answers" `Quick test_wots_kat;
      ] );
    ( "hbss.hors",
      [
        Alcotest.test_case "roundtrip" `Quick test_hors_roundtrip;
        Alcotest.test_case "merklified" `Quick test_hors_merklified;
        Alcotest.test_case "deduced elements" `Quick test_hors_deduced;
        Alcotest.test_case "factorized digest recovery" `Quick test_hors_recover_digest;
        Alcotest.test_case "one-time enforcement" `Quick test_hors_one_time;
        Alcotest.test_case "forest tree counts" `Quick test_hors_forest_tree_counts;
      ] );
    ("hbss.lamport", [ Alcotest.test_case "roundtrip" `Quick test_lamport ]);
    ("hbss.properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
  ]
