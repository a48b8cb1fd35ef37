(* Edge cases and regression pinning: golden wire vectors, configuration
   validation, parameter-math consistency, cost-model sanity, and
   hand-computed W-OTS+ digit extraction. *)

open Dsig
module CM = Dsig_costmodel.Costmodel

(* --- golden wire vector: everything from Rng/BLAKE3 seeds is
   deterministic, so a signature's bytes are a regression fingerprint of
   the whole pipeline (key derivation, chains, Merkle tree, EdDSA,
   encoding). Pin its BLAKE3 digest. --- *)

let test_golden_signature () =
  let cfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4) in
  let sys = System.create ~seed:123L cfg ~n:2 () in
  let signature = System.sign sys ~signer:0 ~hint:[ 1 ] "golden message" in
  Alcotest.(check int) "length" 1456 (String.length signature);
  (* If this digest changes, the wire format or key-derivation pipeline
     changed: bump deliberately. Last bump: the announcement ACK
     tracker no longer takes an RNG, so the signer stops splitting one
     off and the seeded key stream shifts (wire format unchanged). *)
  Alcotest.(check string) "fingerprint"
    "0c547f2757b19022b3067f4dcf433e551ed25a4ca1fd4594cd7901a4c82e1ab8"
    (Dsig_util.Bytesutil.to_hex (Dsig_hashes.Blake3.digest signature));
  (* determinism across identically-seeded systems *)
  let sys2 = System.create ~seed:123L cfg ~n:2 () in
  let signature2 = System.sign sys2 ~signer:0 ~hint:[ 1 ] "golden message" in
  Alcotest.(check string) "reproducible" signature signature2;
  Alcotest.(check bool) "cross-verifies" true
    (System.verify sys2 ~verifier:1 ~msg:"golden message" signature)

(* --- config validation --- *)

let test_config_validation () =
  Alcotest.check_raises "batch not pow2"
    (Invalid_argument "Config.make: batch_size must be a power of two") (fun () ->
      ignore (Config.make ~batch_size:100 (Config.wots ~d:4)));
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Config.make: thresholds must be positive") (fun () ->
      ignore (Config.make ~queue_threshold:0 (Config.wots ~d:4)));
  Alcotest.check_raises "bad d"
    (Invalid_argument "Params.Wots.make: d must be a power of two >= 2") (fun () ->
      ignore (Config.wots ~d:3));
  Alcotest.check_raises "bad k" (Invalid_argument "Params.Hors.make: k must be a power of two")
    (fun () -> ignore (Config.hors_factorized ~k:7));
  Alcotest.check_raises "trees must divide"
    (Invalid_argument "Config.hors_merklified: trees must divide t") (fun () ->
      ignore (Config.hors_merklified ~trees:7 ~k:16 ()));
  (* merklified HORS announces full keys, W-OTS+ digests only *)
  let full_keys hbss =
    let cfg = Config.make ~batch_size:8 ~queue_threshold:8 hbss in
    let rng = Dsig_util.Rng.create 5L in
    let sk, _ = Dsig_ed25519.Eddsa.generate rng in
    (Batch.announcement cfg (Batch.make cfg ~signer_id:0 ~batch_id:0L ~eddsa:sk ~rng)).Batch.full_keys
  in
  Alcotest.(check bool) "merklified announces full keys" true
    (Option.is_some (full_keys (Config.hors_merklified ~k:32 ())));
  Alcotest.(check bool) "W-OTS+ announces digests only" true
    (Option.is_none (full_keys (Config.wots ~d:4)))

(* --- W-OTS+ digit extraction, checked by hand --- *)

let test_wots_digits_by_hand () =
  (* d=4: 2-bit digits, MSB first. Digest 0b10 11 00 01 ... *)
  let p = Dsig_hbss.Params.Wots.make ~d:4 () in
  ignore p;
  let digits = Dsig_hbss.Bits.digits "\xb1" ~width:2 ~count:4 in
  (* 0xb1 = 1011 0001 -> digits 10,11,00,01 = 2,3,0,1 *)
  Alcotest.(check (array int)) "2-bit digits" [| 2; 3; 0; 1 |] digits;
  (* checksum: sum (d-1 - digit) over message digits; for digits
     [2;3;0;1] with d=4: (1)+(0)+(3)+(2) = 6 *)
  let checksum = Array.fold_left (fun acc m -> acc + (4 - 1 - m)) 0 digits in
  Alcotest.(check int) "checksum" 6 checksum

(* --- params consistency sweeps --- *)

let test_params_monotonicity () =
  (* signature bytes strictly decrease with d; keygen hashes increase *)
  let ds = [ 2; 4; 8; 16; 32 ] in
  let sizes =
    List.map (fun d -> Wire.size_bytes (Config.make (Config.wots ~d))) ds
  in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sizes decrease with d" true (strictly_decreasing sizes);
  let keygens =
    List.map (fun d -> Dsig_hbss.Params.Wots.keygen_hashes (Dsig_hbss.Params.Wots.make ~d ())) ds
  in
  Alcotest.(check bool) "keygen grows with d" true (strictly_decreasing (List.rev keygens));
  (* HORS: t decreases as k grows (fixed security) *)
  let ts = List.map (fun k -> (Dsig_hbss.Params.Hors.make ~k ()).Dsig_hbss.Params.Hors.t) [ 8; 16; 32; 64 ] in
  Alcotest.(check bool) "t decreases with k" true (strictly_decreasing ts)

let test_analysis_consistency () =
  (* analysis rows agree with the wire encoder and announcement model *)
  List.iter
    (fun cfg ->
      let row = Analysis.of_config cfg in
      Alcotest.(check int) (row.Analysis.label ^ " size") (Wire.size_bytes cfg)
        row.Analysis.signature_bytes;
      Alcotest.(check bool) (row.Analysis.label ^ " bg positive") true
        (row.Analysis.bg_bytes_per_sig > 0.0))
    [
      Config.make (Config.wots ~d:4);
      Config.make (Config.hors_factorized ~k:32);
      Config.make (Config.hors_merklified ~k:32 ());
    ]

(* --- cost-model sanity --- *)

let test_costmodel_sanity () =
  let cfg = Config.default in
  List.iter
    (fun cm ->
      let sign = CM.dsig_sign_us cm cfg ~msg_bytes:8 in
      let vfast = CM.dsig_verify_fast_us cm cfg ~msg_bytes:8 in
      let vslow = CM.dsig_verify_slow_us cm cfg ~msg_bytes:8 in
      Alcotest.(check bool) (cm.CM.name ^ " sign cheapest") true (sign < vfast);
      Alcotest.(check bool) (cm.CM.name ^ " slow > fast") true (vslow > vfast);
      Alcotest.(check bool) (cm.CM.name ^ " dsig verify beats eddsa") true
        (vfast < CM.eddsa_verify_total_us cm ~msg_bytes:8);
      (* message size only ever increases costs *)
      Alcotest.(check bool) (cm.CM.name ^ " size monotone") true
        (CM.dsig_verify_fast_us cm cfg ~msg_bytes:8192 > vfast);
      (* keygen dominated by chain hashing, amortization helps *)
      let small = Config.make ~batch_size:1 (Config.wots ~d:4) in
      Alcotest.(check bool) (cm.CM.name ^ " batching helps keygen") true
        (CM.dsig_keygen_per_key_us cm cfg < CM.dsig_keygen_per_key_us cm small))
    [ CM.paper_dalek; CM.paper_sodium ];
  (* paper calibration reproduces the headline numbers *)
  Alcotest.(check (float 0.05)) "sign 0.7" 0.7 (CM.dsig_sign_us CM.paper_dalek cfg ~msg_bytes:8);
  Alcotest.(check (float 0.1)) "verify 5.1" 5.1
    (CM.dsig_verify_fast_us CM.paper_dalek cfg ~msg_bytes:8);
  Alcotest.(check (float 0.2)) "keygen 7.4" 7.4 (CM.dsig_keygen_per_key_us CM.paper_dalek cfg)

(* --- hash registry --- *)

let test_hash_registry () =
  List.iter
    (fun algo ->
      Alcotest.(check bool) "roundtrip" true
        (Dsig_hashes.Hash.of_string (Dsig_hashes.Hash.to_string algo) = algo))
    Dsig_hashes.Hash.all;
  Alcotest.check_raises "unknown" (Invalid_argument "Hash.of_string: unknown algorithm blake2")
    (fun () -> ignore (Dsig_hashes.Hash.of_string "blake2"))

(* --- scalar edges --- *)

let test_scalar_edges () =
  let module Scalar = Dsig_ed25519.Scalar in
  let l = Bn.of_bytes_le Scalar.l in
  let enc v = Bn.to_bytes_le ~length:32 v in
  (* L-1 is accepted, L and L+1 rejected *)
  let lm1 = enc (Bn.sub l Bn.one) in
  Alcotest.(check bool) "L-1 ok" true (Scalar.of_bytes_checked lm1 = Some lm1);
  Alcotest.(check bool) "L rejected" true (Scalar.of_bytes_checked (enc l) = None);
  Alcotest.(check bool) "L+1 rejected" true (Scalar.of_bytes_checked (enc (Bn.add l Bn.one)) = None);
  Alcotest.(check bool) "short rejected" true (Scalar.of_bytes_checked "abc" = None);
  (* reduce of 64 random-ish bytes is always < L *)
  let r = Dsig_util.Rng.create 5L in
  for _ = 1 to 50 do
    let v = Scalar.reduce_bytes (Dsig_util.Rng.bytes r 64) in
    Alcotest.(check bool) "< L" true (Bn.compare (Bn.of_bytes_le v) l < 0)
  done;
  (* muladd identity: k*0 + r = r mod L *)
  let k = enc (Bn.of_int 12345) in
  Alcotest.(check string) "muladd" lm1 (Scalar.muladd k Scalar.zero lm1)

(* --- signer group selection --- *)

let test_group_selection_details () =
  let cfg = Config.make ~batch_size:4 ~queue_threshold:4 (Config.wots ~d:4) in
  let rng = Dsig_util.Rng.create 1L in
  let sk, _ = Dsig_ed25519.Eddsa.generate rng in
  (* groups: {1}, {1,2}, {2,3}; default {0,1,2,3,4} *)
  let signer =
    Signer.create cfg ~id:0 ~eddsa:sk ~rng ~groups:[ [ 1 ]; [ 1; 2 ]; [ 2; 3 ] ]
      ~verifiers:[ 0; 1; 2; 3; 4 ] ()
  in
  Signer.background_fill signer;
  (* hint {2} -> smallest group containing it is {1,2} (2 members) *)
  ignore (Signer.sign signer ~hint:[ 2 ] "x");
  (* after one sign from {1,2}, its queue is one short *)
  Alcotest.(check int) "queue consumed" 3 (Signer.queue_length signer [ 1; 2 ]);
  Alcotest.(check int) "other group untouched" 4 (Signer.queue_length signer [ 2; 3 ]);
  (* duplicate hint entries are normalized *)
  ignore (Signer.sign signer ~hint:[ 2; 2; 1 ] "y");
  Alcotest.(check int) "dedup hint hits {1,2}" 2 (Signer.queue_length signer [ 1; 2 ]);
  (* hint spanning groups falls to default *)
  ignore (Signer.sign signer ~hint:[ 3; 4 ] "z");
  Alcotest.(check int) "default consumed" 3 (Signer.queue_length signer [ 0; 1; 2; 3; 4 ]);
  let anns = Signer.drain_outbox signer in
  (* announcements went to group members only, never to self *)
  Alcotest.(check bool) "never to self" true (List.for_all (fun (dest, _) -> dest <> 0) anns)

let suites =
  [
    ( "edge",
      [
        Alcotest.test_case "golden signature" `Quick test_golden_signature;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "wots digits by hand" `Quick test_wots_digits_by_hand;
        Alcotest.test_case "params monotonicity" `Quick test_params_monotonicity;
        Alcotest.test_case "analysis consistency" `Quick test_analysis_consistency;
        Alcotest.test_case "costmodel sanity" `Quick test_costmodel_sanity;
        Alcotest.test_case "hash registry" `Quick test_hash_registry;
        Alcotest.test_case "scalar edges" `Quick test_scalar_edges;
        Alcotest.test_case "group selection" `Quick test_group_selection_details;
      ] );
  ]
