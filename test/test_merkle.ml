open Dsig_merkle

let leaves n = Array.init n (fun i -> Printf.sprintf "leaf-%04d" i)

let test_basic () =
  let t = Merkle.build (leaves 8) in
  Alcotest.(check int) "size" 8 (Merkle.size t);
  Alcotest.(check int) "root len" 32 (String.length (Merkle.root t));
  for i = 0 to 7 do
    let pf = Merkle.proof t i in
    Alcotest.(check bool) (Printf.sprintf "proof %d" i) true
      (Merkle.verify ~root:(Merkle.root t) ~leaf:(Printf.sprintf "leaf-%04d" i) pf)
  done

let test_rejections () =
  let t = Merkle.build (leaves 16) in
  let pf = Merkle.proof t 3 in
  let root = Merkle.root t in
  Alcotest.(check bool) "wrong leaf" false (Merkle.verify ~root ~leaf:"leaf-0004" pf);
  Alcotest.(check bool) "wrong root" false
    (Merkle.verify ~root:(String.make 32 'x') ~leaf:"leaf-0003" pf);
  let pf_bad = { pf with Merkle.index = 5 } in
  Alcotest.(check bool) "wrong index" false (Merkle.verify ~root ~leaf:"leaf-0003" pf_bad);
  (match pf.Merkle.siblings with
  | s :: rest ->
      let tampered = { pf with Merkle.siblings = Dsig_util.Bytesutil.xor s (String.make 32 '\x01') :: rest } in
      Alcotest.(check bool) "tampered sibling" false
        (Merkle.verify ~root ~leaf:"leaf-0003" tampered)
  | [] -> Alcotest.fail "expected non-empty proof");
  Alcotest.check_raises "oob" (Invalid_argument "Merkle.proof: index out of range") (fun () ->
      ignore (Merkle.proof t 16))

let test_non_pow2 () =
  List.iter
    (fun n ->
      let t = Merkle.build (leaves n) in
      Alcotest.(check int) "size" n (Merkle.size t);
      for i = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "n=%d proof %d" n i)
          true
          (Merkle.verify ~root:(Merkle.root t) ~leaf:(Printf.sprintf "leaf-%04d" i)
             (Merkle.proof t i))
      done)
    [ 1; 2; 3; 5; 7; 9; 100 ]

let test_encode () =
  let t = Merkle.build (leaves 128) in
  let pf = Merkle.proof t 77 in
  let enc = Merkle.encode_proof pf in
  Alcotest.(check int) "wire size" (Merkle.proof_size_bytes ~leaves:128) (String.length enc);
  (match Merkle.decode_proof ~levels:7 enc with
  | None -> Alcotest.fail "decode failed"
  | Some pf' ->
      Alcotest.(check bool) "roundtrip verifies" true
        (Merkle.verify ~root:(Merkle.root t) ~leaf:"leaf-0077" pf'));
  Alcotest.(check bool) "decode wrong size" true (Merkle.decode_proof ~levels:6 enc = None)

(* Known answers pinned before the scratch-buffer fold: the root of a
   fixed 128-leaf batch, and the root each proof folds back to. *)
let test_known_answers () =
  let hex = Dsig_util.Bytesutil.to_hex in
  let ls = Array.init 128 (fun i -> Dsig_hashes.Sha256.digest (Printf.sprintf "kat leaf %d" i)) in
  let t = Merkle.build ls in
  let root = "7939ab7653497bdb21926dc30c7e48865c81ca82d7e659691e6c1b915038b0a3" in
  Alcotest.(check string) "root" root (hex (Merkle.root t));
  List.iter
    (fun i ->
      Alcotest.(check string) (Printf.sprintf "compute_root %d" i) root
        (hex (Merkle.compute_root ~leaf:ls.(i) (Merkle.proof t i))))
    [ 0; 37; 127 ];
  Alcotest.(check string) "leaf 37 digest"
    "6081c39f92ac3a24d2aefeb1b5b5e1db303792fe6c52101ecbcae525a790ff62" (hex (Merkle.leaf_digest t 37))

let test_forest () =
  let ls = leaves 64 in
  let f = Merkle.Forest.build ~trees:8 ls in
  let roots = Merkle.Forest.roots f in
  Alcotest.(check int) "8 roots" 8 (List.length roots);
  for i = 0 to 63 do
    let pf = Merkle.Forest.proof f i in
    Alcotest.(check bool) (Printf.sprintf "forest proof %d" i) true
      (Merkle.Forest.verify ~roots ~leaf:ls.(i) pf)
  done;
  let tree, pf = Merkle.Forest.proof f 0 in
  Alcotest.(check bool) "wrong tree" false
    (Merkle.Forest.verify ~roots ~leaf:ls.(0) (tree + 1, pf));
  Alcotest.(check bool) "oob tree" false (Merkle.Forest.verify ~roots ~leaf:ls.(0) (99, pf));
  Alcotest.check_raises "bad split"
    (Invalid_argument "Merkle.Forest.build: tree count must divide leaf count") (fun () ->
      ignore (Merkle.Forest.build ~trees:7 ls))

let test_multiproof () =
  let ls = leaves 64 in
  let t = Merkle.build ls in
  let idx = [ 3; 17; 18; 40 ] in
  let mp = Merkle.Multiproof.create t idx in
  let contents = List.map (fun i -> (i, ls.(i))) idx in
  Alcotest.(check bool) "verifies" true
    (Merkle.Multiproof.verify ~root:(Merkle.root t) ~leaves:contents mp);
  (* compression: shared paths make it smaller than independent proofs *)
  Alcotest.(check bool) "compressed" true
    (Merkle.Multiproof.size_bytes mp < Merkle.Multiproof.naive_size_bytes t idx);
  (* rejection: wrong leaf content, wrong index set, wrong root *)
  let bad_content = List.map (fun (i, c) -> if i = 17 then (i, c ^ "!") else (i, c)) contents in
  Alcotest.(check bool) "wrong content" false
    (Merkle.Multiproof.verify ~root:(Merkle.root t) ~leaves:bad_content mp);
  let wrong_set = List.map (fun (i, c) -> if i = 17 then (19, c) else (i, c)) contents in
  Alcotest.(check bool) "wrong indices" false
    (Merkle.Multiproof.verify ~root:(Merkle.root t) ~leaves:wrong_set mp);
  Alcotest.(check bool) "wrong root" false
    (Merkle.Multiproof.verify ~root:(String.make 32 'z') ~leaves:contents mp);
  (* edge: all leaves covered -> nothing carried *)
  let small = Merkle.build (leaves 4) in
  let all = Merkle.Multiproof.create small [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "full cover verifies" true
    (Merkle.Multiproof.verify ~root:(Merkle.root small)
       ~leaves:(List.init 4 (fun i -> (i, Printf.sprintf "leaf-%04d" i)))
       all);
  (* adjacent leaves share everything above their parent *)
  let adjacent = Merkle.Multiproof.create t [ 8; 9 ] in
  Alcotest.(check bool) "adjacent pair saves ~half" true
    (Merkle.Multiproof.size_bytes adjacent
    < (Merkle.Multiproof.naive_size_bytes t [ 8; 9 ] * 6 / 10));
  Alcotest.check_raises "duplicates" (Invalid_argument "Merkle.Multiproof.create: duplicate indices")
    (fun () -> ignore (Merkle.Multiproof.create t [ 1; 1 ]));
  Alcotest.check_raises "oob" (Invalid_argument "Merkle.Multiproof.create: out of range")
    (fun () -> ignore (Merkle.Multiproof.create t [ 64 ]))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"proofs verify for random trees" ~count:60
      (pair (int_range 1 70) (int_range 0 1000))
      (fun (n, salt) ->
        let ls = Array.init n (fun i -> Printf.sprintf "%d-%d" salt i) in
        let t = Merkle.build ls in
        let i = salt mod n in
        Merkle.verify ~root:(Merkle.root t) ~leaf:ls.(i) (Merkle.proof t i));
    Test.make ~name:"root binds leaves" ~count:60 (pair (int_range 2 64) (int_range 0 10_000))
      (fun (n, salt) ->
        let ls = Array.init n (fun i -> Printf.sprintf "%d-%d" salt i) in
        let t1 = Merkle.build ls in
        let i = salt mod n in
        ls.(i) <- ls.(i) ^ "'";
        let t2 = Merkle.build ls in
        Merkle.root t1 <> Merkle.root t2);
    Test.make ~name:"multiproof verifies for random subsets" ~count:60
      (pair (int_range 2 64) (int_range 0 10_000))
      (fun (n, salt) ->
        let ls = Array.init n (fun i -> Printf.sprintf "%d.%d" salt i) in
        let t = Merkle.build ls in
        let rng = Dsig_util.Rng.create (Int64.of_int salt) in
        let k = 1 + Dsig_util.Rng.int rng (min 8 n) in
        let idx =
          List.sort_uniq compare (List.init k (fun _ -> Dsig_util.Rng.int rng n))
        in
        let mp = Merkle.Multiproof.create t idx in
        Merkle.Multiproof.verify ~root:(Merkle.root t)
          ~leaves:(List.map (fun i -> (i, ls.(i))) idx)
          mp
        (* a k=1 multiproof carries 4 B more bookkeeping than a plain
           proof; for k >= 2 it is never larger *)
        && Merkle.Multiproof.size_bytes mp <= Merkle.Multiproof.naive_size_bytes t idx + 4);
    Test.make ~name:"proof not valid for other index" ~count:60
      (pair (int_range 2 64) (int_range 0 10_000))
      (fun (n, salt) ->
        let ls = Array.init n (fun i -> Printf.sprintf "%d-%d" salt i) in
        let t = Merkle.build ls in
        let i = salt mod n and j = (salt + 1) mod n in
        not (Merkle.verify ~root:(Merkle.root t) ~leaf:ls.(j) (Merkle.proof t i)));
  ]

let suites =
  [
    ( "merkle",
      [
        Alcotest.test_case "basic" `Quick test_basic;
        Alcotest.test_case "rejections" `Quick test_rejections;
        Alcotest.test_case "non power of two" `Quick test_non_pow2;
        Alcotest.test_case "wire encoding" `Quick test_encode;
        Alcotest.test_case "known answers" `Quick test_known_answers;
        Alcotest.test_case "forest" `Quick test_forest;
        Alcotest.test_case "multiproof" `Quick test_multiproof;
      ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests );
  ]
