open Dsig

(* Small batches keep tests fast while exercising every path. *)
let test_cfg ?(hbss = Config.wots ~d:4) ?(batch = 8) ?(s = 8) ?(cache = 2) () =
  Config.make ~batch_size:batch ~queue_threshold:s ~cache_batches:cache hbss

let all_hbss =
  [
    ("wots", Config.wots ~d:4);
    ("hors-f", Config.hors_factorized ~k:32);
    ("hors-m", Config.hors_merklified ~k:32 ());
  ]

let test_wire_size_recommended () =
  (* Table 1: the recommended configuration produces 1,584-byte
     signatures. *)
  Alcotest.(check int) "1584 bytes" 1584 (Wire.size_bytes Config.default);
  Alcotest.(check string) "describe" "W-OTS+ d=4/haraka batch=128 S=512"
    (Config.describe Config.default)

let test_roundtrip_all_schemes () =
  List.iter
    (fun (name, hbss) ->
      let sys = System.create (test_cfg ~hbss ()) ~n:2 () in
      let msg = "hello " ^ name in
      let signature = System.sign sys ~signer:0 ~hint:[ 1 ] msg in
      Alcotest.(check bool) (name ^ " verifies") true
        (System.verify sys ~verifier:1 ~msg signature);
      Alcotest.(check bool) (name ^ " wrong msg") false
        (System.verify sys ~verifier:1 ~msg:"tampered" signature);
      (* correct hint means the fast path served it *)
      let st = Verifier.stats (System.verifier sys 1) in
      Alcotest.(check int) (name ^ " fast") 1 st.Verifier.fast;
      Alcotest.(check int) (name ^ " slow") 0 st.Verifier.slow)
    all_hbss

let test_exact_wire_bytes () =
  let cfg = test_cfg () in
  let sys = System.create cfg ~n:2 () in
  let signature = System.sign sys ~signer:0 "size check" in
  (* batch 8 -> 3 proof levels: 20 + 32 + 16 + 1224 + (4 + 96) + 64 *)
  Alcotest.(check int) "wire size" (Wire.size_bytes cfg) (String.length signature);
  Alcotest.(check int) "formula" 1456 (String.length signature)

(* The encoding of one fixed W-OTS+ signature, pinned before the
   offset-based decode: its bytes are the header, the public seed, the
   nonce, the 68 elements, the batch proof and the root signature, in
   that order. Decoding gives the same bytes back. *)
let test_wots_wire_kat () =
  let cfg = Config.default in
  let p = match cfg.Config.hbss with Config.Wots p -> p | _ -> assert false in
  let kp = Dsig_hbss.Wots.generate p ~seed:(String.make 32 'w') in
  let s = Dsig_hbss.Wots.sign kp ~nonce:(String.make 16 'n') "wire kat" in
  let leaves = Array.init 128 (fun i -> Dsig_hashes.Sha256.digest (string_of_int i)) in
  let tree = Dsig_merkle.Merkle.build leaves in
  let w =
    {
      Wire.signer_id = 7;
      batch_id = 42L;
      public_seed = Dsig_hbss.Wots.public_seed kp;
      body = Wire.Wots_body s;
      batch_proof = Dsig_merkle.Merkle.proof tree 37;
      root_sig = String.make 64 'e';
    }
  in
  let bytes = Wire.encode cfg w in
  Alcotest.(check int) "length" 1584 (String.length bytes);
  Alcotest.(check string) "sha256 of the encoding"
    "21a6e2b36e264807d04f165e5ede8058962134fb23f1a8aa55c966568a04a202"
    (Dsig_util.Bytesutil.to_hex (Dsig_hashes.Sha256.digest bytes));
  match Wire.decode cfg bytes with
  | Error e -> Alcotest.fail e
  | Ok w' -> Alcotest.(check string) "decode then encode" bytes (Wire.encode cfg w')

(* A standalone signer + verifiers with manual announcement routing
   (System wires announcements through immediately; these tests need to
   withhold them). *)
let manual_party ?(hbss = Config.wots ~d:4) ~verifiers () =
  let cfg = test_cfg ~hbss () in
  let rng = Dsig_util.Rng.create 11L in
  let pki = Pki.create () in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let signer = Signer.create cfg ~id:0 ~eddsa:sk ~rng ~verifiers () in
  let vs = List.map (fun id -> Verifier.create cfg ~id ~pki ()) verifiers in
  (cfg, signer, vs)

let test_self_standing () =
  (* A verifier that received no announcements still verifies (slow
     path), exercising transferability (§4.2). *)
  List.iter
    (fun (name, hbss) ->
      let _cfg, signer, vs = manual_party ~hbss ~verifiers:[ 1; 2 ] () in
      let carol = List.nth vs 1 in
      let msg = "transferable " ^ name in
      let signature = Signer.sign signer ~hint:[ 1 ] msg in
      ignore (Signer.drain_outbox signer);
      Alcotest.(check bool) (name ^ " carol verifies") true
        (Verifier.verify carol ~msg signature);
      let st = Verifier.stats carol in
      Alcotest.(check int) (name ^ " slow") 1 st.Verifier.slow;
      Alcotest.(check int) (name ^ " fast") 0 st.Verifier.fast;
      (* the same signature verifies again, now served by the EdDSA
         verification cache (§4.4) *)
      Alcotest.(check bool) (name ^ " re-verify") true (Verifier.verify carol ~msg signature);
      Alcotest.(check int) (name ^ " eddsa cache") 1 st.Verifier.eddsa_cache_hits)
    all_hbss

let test_can_verify_fast () =
  let _cfg, signer, vs = manual_party ~verifiers:[ 1; 2 ] () in
  let v1 = List.nth vs 0 and v2 = List.nth vs 1 in
  let msg = "dos mitigation" in
  let signature = Signer.sign signer ~hint:[ 1 ] msg in
  (* deliver announcements only to verifier 1 *)
  List.iter (fun (_, ann) -> ignore (Verifier.deliver v1 ann)) (Signer.drain_outbox signer);
  Alcotest.(check bool) "v1 fast" true (Verifier.can_verify_fast v1 signature);
  Alcotest.(check bool) "v2 not fast" false (Verifier.can_verify_fast v2 signature);
  Alcotest.(check bool) "garbage not fast" false (Verifier.can_verify_fast v1 "junk")

let test_hint_groups () =
  (* large enough cache that announcements from all three groups fit *)
  let cfg = test_cfg ~s:4 ~cache:8 () in
  let groups i = if i = 0 then [ [ 1 ]; [ 1; 2 ] ] else [] in
  let sys = System.create ~groups cfg ~n:4 () in
  let signer = System.signer sys 0 in
  (* the smallest group containing {1} is {1} *)
  Alcotest.(check bool) "queue for [1]" true (Signer.queue_length signer [ 1 ] >= 4);
  let msg = "grouped" in
  let signature = System.sign sys ~signer:0 ~hint:[ 1 ] msg in
  Alcotest.(check bool) "v1 verifies fast" true (System.verify sys ~verifier:1 ~msg signature);
  Alcotest.(check int) "v1 fast" 1 (Verifier.stats (System.verifier sys 1)).Verifier.fast;
  (* verifier 3 is outside the group: no announcement, slow path *)
  Alcotest.(check bool) "v3 verifies slow" true (System.verify sys ~verifier:3 ~msg signature);
  Alcotest.(check int) "v3 slow" 1 (Verifier.stats (System.verifier sys 3)).Verifier.slow;
  (* unmatched hint falls back to the default group *)
  let s2 = System.sign sys ~signer:0 ~hint:[ 99 ] "fallback" in
  Alcotest.(check bool) "fallback verifies" true
    (System.verify sys ~verifier:2 ~msg:"fallback" s2)

let test_key_exhaustion () =
  let cfg = test_cfg ~batch:4 ~s:4 () in
  let sys = System.create ~auto_background:false cfg ~n:2 () in
  let signer = System.signer sys 0 in
  (* no background pumping: first sign triggers a synchronous refill *)
  for i = 1 to 9 do
    ignore (Signer.sign signer (Printf.sprintf "m%d" i))
  done;
  let st = Signer.stats signer in
  Alcotest.(check int) "signatures" 9 st.Signer.signatures;
  (* 9 signatures from batches of 4, all refills synchronous: 3 *)
  Alcotest.(check int) "sync refills" 3 st.Signer.sync_refills

let test_cache_eviction () =
  let cfg = test_cfg ~batch:4 ~s:4 ~cache:2 () in
  let sys = System.create cfg ~n:2 () in
  (* burn through many batches so announcements keep flowing *)
  for i = 1 to 40 do
    ignore (System.sign sys ~signer:0 (Printf.sprintf "m%d" i))
  done;
  Alcotest.(check bool) "cache bounded" true
    (Verifier.cached_batches (System.verifier sys 1) ~signer:0 <= 2)

let test_unknown_signer () =
  let cfg = test_cfg () in
  let sys_a = System.create ~seed:1L cfg ~n:2 () in
  let sys_b = System.create ~seed:2L cfg ~n:2 () in
  let msg = "cross-system" in
  let signature = System.sign sys_a ~signer:0 msg in
  (* same id exists in sys_b's PKI but with a different EdDSA key: the
     root signature cannot check out *)
  Alcotest.(check bool) "rejected" false (System.verify sys_b ~verifier:1 ~msg signature)

let test_reject_bitflips () =
  List.iter
    (fun (name, hbss) ->
      let cfg = test_cfg ~hbss () in
      let sys = System.create cfg ~n:2 () in
      let msg = "bitflip target " ^ name in
      let signature = System.sign sys ~signer:0 ~hint:[ 1 ] msg in
      let n = String.length signature in
      (* With a warm cache, authenticity comes from pre-verified data:
         the trailing EdDSA root signature is never inspected on the
         fast path (Alg. 2), and on the merklified fast path neither are
         the batch-proof siblings (the precomputed key is compared
         instead). Flips there must still be caught by a verifier
         without the cache; flips anywhere else must always be caught. *)
      let unchecked_start =
        match hbss with
        | Config.Hors_merklified _ -> n - 64 - (4 + (32 * 3)) + 4 (* siblings + root sig *)
        | Config.Wots _ | Config.Hors_factorized _ -> n - 64
      in
      let fresh_verifier () =
        Verifier.create cfg ~id:99 ~pki:(System.pki sys) ()
      in
      let flip pos =
        String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor 0x40) else c) signature
      in
      let positions = List.sort_uniq compare (List.init 24 (fun i -> i * (n / 24)) @ [ unchecked_start - 1; unchecked_start; n - 1 ]) in
      List.iter
        (fun pos ->
          let tampered = flip pos in
          if pos < unchecked_start then
            Alcotest.(check bool)
              (Printf.sprintf "%s flip@%d (cached)" name pos)
              false
              (System.verify sys ~verifier:1 ~msg tampered)
          else begin
            (* fast path tolerates it... *)
            Alcotest.(check bool)
              (Printf.sprintf "%s flip@%d fast path ok" name pos)
              true
              (System.verify sys ~verifier:1 ~msg tampered);
            (* ...but an uncached verifier rejects it *)
            Alcotest.(check bool)
              (Printf.sprintf "%s flip@%d (uncached)" name pos)
              false
              (Verifier.verify (fresh_verifier ()) ~msg tampered)
          end)
        positions)
    all_hbss

let test_announcement_tamper () =
  let _cfg, signer, vs = manual_party ~verifiers:[ 1 ] () in
  ignore (Signer.background_step signer);
  let anns = Signer.drain_outbox signer in
  let _, ann = List.hd anns in
  let v = List.nth vs 0 in
  (* tampered leaf: root signature no longer matches *)
  let bad_leaves = Array.copy ann.Batch.ann_leaves in
  bad_leaves.(0) <- String.make 32 '\x00';
  Alcotest.(check bool) "tampered leaves rejected" false
    (Verifier.deliver v { ann with Batch.ann_leaves = bad_leaves });
  Alcotest.(check bool) "genuine accepted" true (Verifier.deliver v ann);
  Alcotest.(check int) "one cached" 1 (Verifier.cached_batches v ~signer:0)

let test_analysis_table2 () =
  let rows = Analysis.table2 () in
  Alcotest.(check int) "13 rows" 13 (List.length rows);
  let find label = List.find (fun r -> r.Analysis.label = label) rows in
  (* wire sizes reproduce Table 2's W-OTS+ and HORS-F columns exactly *)
  List.iter
    (fun (label, bytes) ->
      Alcotest.(check int) label bytes (find label).Analysis.signature_bytes)
    [
      ("W-OTS+ d=2", 2808);
      ("W-OTS+ d=4", 1584);
      ("W-OTS+ d=8", 1188);
      ("W-OTS+ d=16", 990);
      ("W-OTS+ d=32", 864);
      ("HORS-F k=32", 8552);
      ("HORS-F k=64", 4456);
    ];
  (* background traffic ~33 B/sig for digest-only announcements *)
  let w4 = find "W-OTS+ d=4" in
  Alcotest.(check bool) "bg ~33B" true
    (w4.Analysis.bg_bytes_per_sig > 32.0 && w4.Analysis.bg_bytes_per_sig < 34.0);
  Alcotest.(check int) "keygen 204" 204 w4.Analysis.keygen_hashes;
  Alcotest.(check (float 0.01)) "critical 102" 102.0 w4.Analysis.critical_hashes

let test_wire_decode_errors () =
  let cfg = test_cfg () in
  let sys = System.create cfg ~n:2 () in
  let signature = System.sign sys ~signer:0 "decode" in
  let check_err name s =
    match Wire.decode cfg s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ ": expected decode error")
  in
  check_err "empty" "";
  check_err "truncated" (String.sub signature 0 100);
  check_err "extended" (signature ^ "x");
  check_err "bad magic" ("X" ^ String.sub signature 1 (String.length signature - 1));
  (* decode under a different config must fail on the scheme tag *)
  let other = test_cfg ~hbss:(Config.hors_factorized ~k:32) () in
  (match Wire.decode other signature with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hors config accepted wots signature");
  match Wire.decode cfg signature with
  | Error e -> Alcotest.fail ("genuine failed: " ^ e)
  | Ok w -> Alcotest.(check bool) "index in range" true (Wire.key_index w < 8)

let qcheck_tests =
  let open QCheck in
  let sys_wots = lazy (System.create (test_cfg ()) ~n:2 ()) in
  let sys_horsf = lazy (System.create (test_cfg ~hbss:(Config.hors_factorized ~k:32) ()) ~n:2 ()) in
  [
    Test.make ~name:"wots system roundtrip" ~count:40 (string_of_size Gen.(0 -- 300))
      (fun msg ->
        let sys = Lazy.force sys_wots in
        let signature = System.sign sys ~signer:0 ~hint:[ 1 ] msg in
        System.verify sys ~verifier:1 ~msg signature);
    Test.make ~name:"hors-f roundtrip incl. duplicate indices" ~count:60
      (string_of_size Gen.(0 -- 60))
      (fun msg ->
        (* k=32, t=512: index collisions are frequent, covering the
           variable-size complement path *)
        let sys = Lazy.force sys_horsf in
        let signature = System.sign sys ~signer:0 ~hint:[ 1 ] msg in
        System.verify sys ~verifier:1 ~msg signature);
    Test.make ~name:"signatures never cross messages" ~count:20
      (pair (string_of_size Gen.(1 -- 40)) (string_of_size Gen.(1 -- 40)))
      (fun (m1, m2) ->
        QCheck.assume (m1 <> m2);
        let sys = Lazy.force sys_wots in
        let signature = System.sign sys ~signer:0 ~hint:[ 1 ] m1 in
        not (System.verify sys ~verifier:1 ~msg:m2 signature));
  ]

let test_announce_tracker () =
  let cfg = test_cfg () in
  let clock = ref 0.0 in
  let tracker ?retain () = Announce.create ?retain ~clock:(fun () -> !clock) () in
  let anns =
    Array.init 4 (fun i ->
        let rng = Dsig_util.Rng.create (Int64.of_int (51 + i)) in
        let sk, _ = Dsig_ed25519.Eddsa.generate rng in
        Batch.announcement cfg
          (Batch.make cfg ~signer_id:0 ~batch_id:(Int64.of_int (i + 1)) ~eddsa:sk ~rng))
  in
  let ann i = anns.(i - 1) in
  let dests_of l = List.map fst l in
  (* a destination with no RTT sample yet waits out the initial RTO *)
  let initial_rto = Dsig_util.Rtt.default.Dsig_util.Rtt.initial_rto_us in
  let tr = tracker ~retain:2 () in
  Announce.track tr (ann 1) ~dests:[ 1; 2 ];
  Alcotest.(check int) "two pending" 2 (Announce.pending tr);
  clock := 40.0;
  let o = Announce.ack tr ~verifier:1 ~batch_id:1L in
  Alcotest.(check bool) "ack clears" true o.Announce.settled;
  Alcotest.(check bool) "never-resent ack is not redundant" false o.Announce.redundant;
  Alcotest.(check (option (float 0.001))) "clean RTT sample" (Some 40.0)
    o.Announce.rtt_sample_us;
  Alcotest.(check bool) "duplicate ack ignored" false
    (Announce.ack tr ~verifier:1 ~batch_id:1L).Announce.settled;
  Alcotest.(check bool) "unknown batch ack ignored" false
    (Announce.ack tr ~verifier:2 ~batch_id:9L).Announce.settled;
  Alcotest.(check int) "one pending" 1 (Announce.pending tr);
  Alcotest.(check (option (float 0.001))) "srtt learned" (Some 40.0)
    (Announce.srtt_us tr ~dest:1);
  Alcotest.(check (option (float 0.001))) "unsampled destination sits at the initial RTO"
    (Some initial_rto) (Announce.rto_us tr ~dest:2);
  clock := initial_rto -. 1.0;
  Alcotest.(check int) "nothing due before the initial RTO" 0 (List.length (Announce.due tr));
  clock := initial_rto;
  (match Announce.due tr with
  | [ (2, a) ] ->
      Alcotest.(check bool) "re-announces batch 1" true (a.Batch.ann_batch_id = 1L)
  | l -> Alcotest.failf "expected 1 due, got %d" (List.length l));
  Alcotest.(check (option (float 0.001))) "expiry backs the RTO off"
    (Some (2.0 *. initial_rto)) (Announce.rto_us tr ~dest:2);
  (* Karn's rule: an ACK after a re-send is ambiguous, so no sample *)
  clock := initial_rto +. 100.0;
  let o = Announce.ack tr ~verifier:2 ~batch_id:1L in
  Alcotest.(check bool) "ack after re-send settles" true o.Announce.settled;
  Alcotest.(check (option (float 0.001))) "no RTT sample after a re-send" None
    o.Announce.rtt_sample_us;
  Alcotest.(check int) "only the clean sample counted" 1 (Announce.samples tr);
  Alcotest.(check (option (float 0.001))) "srtt untouched by the ambiguous ack" None
    (Announce.srtt_us tr ~dest:2);
  (* FIFO retention: tracking beyond [retain] evicts the oldest, and an
     evicted batch's unacknowledged destinations count as give-ups *)
  Announce.track tr (ann 2) ~dests:[ 1 ];
  Announce.track tr (ann 3) ~dests:[ 1 ];
  Announce.track tr (ann 4) ~dests:[ 1 ];
  Alcotest.(check int) "retained bound" 2 (Announce.batches tr);
  Alcotest.(check bool) "evicted not served" true (Announce.lookup tr ~batch_id:2L = None);
  Alcotest.(check bool) "recent served" true (Announce.lookup tr ~batch_id:4L <> None);
  Alcotest.(check int) "eviction gave up batch 2's destination" 1 (Announce.gave_up tr);
  (* token bucket: 12 pairs expire together, one poll sends at most the
     burst of 8, interleaved round-robin across destinations *)
  clock := 0.0;
  let tr = tracker () in
  for i = 1 to 4 do
    Announce.track tr (ann i) ~dests:[ 1; 2; 3 ]
  done;
  clock := initial_rto;
  let sent = Announce.due tr in
  Alcotest.(check int) "one poll sends at most the burst" 8 (List.length sent);
  let per_dest d = List.length (List.filter (( = ) d) (dests_of sent)) in
  Alcotest.(check (list int)) "tokens spread across destinations" [ 3; 3; 2 ]
    (List.map per_dest [ 1; 2; 3 ]);
  let rec interleaved = function
    | a :: (b :: _ as rest) -> a <> b && interleaved rest
    | _ -> true
  in
  Alcotest.(check bool) "no destination sent twice in a row" true
    (interleaved (dests_of sent));
  Alcotest.(check int) "empty bucket: the rest stay due" 0 (List.length (Announce.due tr));
  Alcotest.(check int) "nothing abandoned" 12 (Announce.pending tr);
  (* the bucket refills at 2000/s: 2 ms later the 4 leftovers go out *)
  clock := initial_rto +. 2_000.0;
  Alcotest.(check int) "leftovers sent after refill" 4 (List.length (Announce.due tr));
  (* back-pressure stretches the next due time: at full pressure the
     loaded destination waits 4x its RTO, the other keeps its pace *)
  clock := 0.0;
  let tr = tracker () in
  Announce.note_pressure tr ~dest:1 ~pressure:255;
  Alcotest.(check int) "pressure recorded" 255 (Announce.pressure_level tr ~dest:1);
  Announce.track tr (ann 1) ~dests:[ 1; 2 ];
  clock := initial_rto;
  Alcotest.(check (list int)) "unloaded destination due at its RTO" [ 2 ]
    (dests_of (Announce.due tr));
  clock := (4.0 *. initial_rto) -. 1.0;
  Alcotest.(check bool) "loaded destination not due before 4x RTO" false
    (List.mem 1 (dests_of (Announce.due tr)));
  clock := 4.0 *. initial_rto;
  Alcotest.(check bool) "loaded destination due at 4x RTO" true
    (List.mem 1 (dests_of (Announce.due tr)));
  Alcotest.(check int) "pressure decays" 0 (Announce.pressure_level tr ~dest:1)

let test_system_ack_loop () =
  (* in-process transport is lossless: the control loopback settles
     every announcement synchronously, so nothing is ever left unACKed *)
  let sys = System.create (test_cfg ()) ~n:3 () in
  let msg = "ack loop" in
  let s = System.sign sys ~signer:0 msg in
  Alcotest.(check bool) "verifies" true (System.verify sys ~verifier:1 ~msg s);
  for i = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "signer %d fully acked" i)
      0
      (Signer.unacked_announcements (System.signer sys i))
  done;
  Alcotest.(check bool) "acks flowed" true
    ((Verifier.stats (System.verifier sys 1)).Verifier.acks_sent > 0);
  let cp = Control_plane.of_signer (System.signer sys 0) in
  let now = Dsig_telemetry.Telemetry.(now default) in
  Alcotest.(check int) "nothing to re-announce" 0 (List.length (Control_plane.step cp ~now))

let suites =
  [
    ( "dsig.core",
      [
        Alcotest.test_case "recommended wire size" `Quick test_wire_size_recommended;
        Alcotest.test_case "announce tracker" `Quick test_announce_tracker;
        Alcotest.test_case "system ack loop" `Quick test_system_ack_loop;
        Alcotest.test_case "roundtrip all schemes" `Quick test_roundtrip_all_schemes;
        Alcotest.test_case "exact wire bytes" `Quick test_exact_wire_bytes;
        Alcotest.test_case "wots wire known answer" `Quick test_wots_wire_kat;
        Alcotest.test_case "self-standing slow path" `Quick test_self_standing;
        Alcotest.test_case "canVerifyFast" `Quick test_can_verify_fast;
        Alcotest.test_case "hint groups" `Quick test_hint_groups;
        Alcotest.test_case "key exhaustion" `Quick test_key_exhaustion;
        Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
        Alcotest.test_case "unknown signer" `Quick test_unknown_signer;
        Alcotest.test_case "bit flips rejected" `Quick test_reject_bitflips;
        Alcotest.test_case "announcement tampering" `Quick test_announcement_tamper;
        Alcotest.test_case "analysis table2" `Quick test_analysis_table2;
        Alcotest.test_case "wire decode errors" `Quick test_wire_decode_errors;
      ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests );
  ]
