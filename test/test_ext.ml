(* Extensions and integration: revocation lists (§4.2), the MSS
   many-time baseline (§9), few-time HORS (r > 1), real DSig deployed
   over the simulated network, and wire-format fuzzing. *)

open Dsig
module Sim = Dsig_simnet.Sim

let small_cfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4)

(* --- revocation --- *)

let test_revocation () =
  let sys = System.create small_cfg ~n:3 () in
  let msg = "pre-revocation" in
  let signature = System.sign sys ~signer:0 ~hint:[ 1 ] msg in
  Alcotest.(check bool) "valid before" true (System.verify sys ~verifier:1 ~msg signature);
  Pki.revoke (System.pki sys) 0;
  Alcotest.(check bool) "revoked flag" true (Pki.is_revoked (System.pki sys) 0);
  Alcotest.(check (list int)) "revocation list" [ 0 ] (Pki.revoked (System.pki sys));
  (* even previously issued signatures are now rejected, on both paths *)
  Alcotest.(check bool) "cached verifier rejects" false
    (System.verify sys ~verifier:1 ~msg signature);
  let fresh = Verifier.create small_cfg ~id:9 ~pki:(System.pki sys) () in
  Alcotest.(check bool) "uncached verifier rejects" false (Verifier.verify fresh ~msg signature);
  (* other signers unaffected *)
  let s2 = System.sign sys ~signer:1 ~hint:[ 2 ] "other signer" in
  Alcotest.(check bool) "others fine" true (System.verify sys ~verifier:2 ~msg:"other signer" s2);
  (* announcements from a revoked signer are dropped *)
  let rng = Dsig_util.Rng.create 3L in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:5 ~epoch:0 pk;
  Pki.revoke pki 5;
  let signer = Signer.create small_cfg ~id:5 ~eddsa:sk ~rng ~verifiers:[ 6 ] () in
  ignore (Signer.background_step signer);
  let v = Verifier.create small_cfg ~id:6 ~pki () in
  List.iter
    (fun (_, ann) ->
      Alcotest.(check bool) "announcement dropped" false (Verifier.deliver v ann))
    (Signer.drain_outbox signer);
  (* idempotent double revoke; pre-emptive revoke of unknown id *)
  Pki.revoke pki 5;
  Pki.revoke pki 42;
  Alcotest.(check bool) "unknown revocable" true (Pki.is_revoked pki 42)

(* --- MSS --- *)

let test_mss_roundtrip () =
  let kp = Dsig_hbss.Mss.generate ~height:3 ~seed:(String.make 32 'm') () in
  let pk = Dsig_hbss.Mss.public_key kp in
  Alcotest.(check int) "capacity" 8 (Dsig_hbss.Mss.capacity kp);
  let sigs = List.init 8 (fun i ->
      let msg = Printf.sprintf "mss message %d" i in
      (msg, Dsig_hbss.Mss.sign kp msg))
  in
  Alcotest.(check int) "exhausted" 0 (Dsig_hbss.Mss.remaining kp);
  List.iter
    (fun (msg, s) ->
      Alcotest.(check bool) ("verifies " ^ msg) true
        (Dsig_hbss.Mss.verify ~public_key:pk s msg);
      Alcotest.(check bool) "wrong msg" false (Dsig_hbss.Mss.verify ~public_key:pk s "forged"))
    sigs;
  Alcotest.check_raises "exhaustion" (Invalid_argument "Mss.sign: key exhausted") (fun () ->
      ignore (Dsig_hbss.Mss.sign kp "ninth"));
  (* leaves are distinct; sigs don't verify under each other's indices *)
  let _, s0 = List.nth sigs 0 and m1, s1 = List.nth sigs 1 in
  let spliced = { s1 with Dsig_hbss.Mss.proof = s0.Dsig_hbss.Mss.proof } in
  Alcotest.(check bool) "spliced proof rejected" false
    (Dsig_hbss.Mss.verify ~public_key:pk spliced m1)

let test_mss_statefulness () =
  let kp = Dsig_hbss.Mss.generate ~height:2 ~seed:(String.make 32 'n') () in
  let s1 = Dsig_hbss.Mss.sign kp "a" in
  let s2 = Dsig_hbss.Mss.sign kp "b" in
  Alcotest.(check bool) "distinct leaves" true
    (s1.Dsig_hbss.Mss.leaf_index <> s2.Dsig_hbss.Mss.leaf_index);
  Alcotest.(check int) "sizes" (Dsig_hbss.Mss.signature_bytes ~height:2 ())
    (32 + 16 + 1224 + 4 + 64)

(* --- HORS r > 1 --- *)

let test_hors_few_time () =
  let p1 = Dsig_hbss.Params.Hors.make ~k:16 () in
  let p4 = Dsig_hbss.Params.Hors.make ~k:16 ~r:4 () in
  (* more uses demand a bigger key for the same security *)
  Alcotest.(check int) "r=1 t" 4096 p1.Dsig_hbss.Params.Hors.t;
  Alcotest.(check int) "r=4 t" 16384 p4.Dsig_hbss.Params.Hors.t;
  Alcotest.(check bool) "both >= 128 bits" true
    (Dsig_hbss.Params.Hors.security_bits p1 >= 128.0
    && Dsig_hbss.Params.Hors.security_bits p4 >= 128.0);
  let kp = Dsig_hbss.Hors.generate p4 ~seed:(String.make 32 'r') in
  let seed = Dsig_hbss.Hors.public_seed kp in
  let elements = Dsig_hbss.Hors.public_elements kp in
  for i = 1 to 4 do
    let msg = Printf.sprintf "use %d" i in
    let s = Dsig_hbss.Hors.sign kp ~nonce:(String.make 16 (Char.chr i)) msg in
    Alcotest.(check bool) msg true
      (Dsig_hbss.Hors.verify_with_elements p4 ~public_seed:seed ~elements s msg)
  done;
  Alcotest.check_raises "fifth use" (Invalid_argument "Hors.sign: one-time key already used")
    (fun () -> ignore (Dsig_hbss.Hors.sign kp ~nonce:(String.make 16 'x') "fifth"))

(* --- durable audit-log files --- *)

let test_logfile_roundtrip () =
  let sys = System.create small_cfg ~n:2 () in
  let log = Dsig_audit.Audit.create () in
  let v = System.verifier sys 0 in
  for i = 0 to 4 do
    let op = Printf.sprintf "op-%d with some \x00 payload" i in
    let signature = System.sign sys ~signer:1 ~hint:[ 0 ] op in
    match
      Dsig_audit.Audit.admit log
        ~verify:(fun ~msg s -> Verifier.verify v ~msg s)
        ~client:1 ~seq:i ~op ~signature
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  let path = Filename.temp_file "dsig-test" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Dsig_audit.Logfile.save path log;
      (match Dsig_audit.Logfile.load path with
      | Error e -> Alcotest.fail e
      | Ok loaded ->
          Alcotest.(check int) "entries preserved" 5 (Dsig_audit.Audit.length loaded);
          Alcotest.(check bool) "identical entries" true
            (Dsig_audit.Audit.entries loaded = Dsig_audit.Audit.entries log);
          (* the loaded log audits cleanly with a fresh verifier *)
          let auditor = Verifier.create small_cfg ~id:9 ~pki:(System.pki sys) () in
          let (valid, invalid), _ =
            Dsig_audit.Audit.audit loaded ~verify:(fun ~client:_ ~msg s ->
                Verifier.verify auditor ~msg s)
          in
          Alcotest.(check int) "all valid" 5 valid;
          Alcotest.(check int) "none invalid" 0 invalid);
      (* appending grows the log by one record *)
      (let w = Dsig_audit.Logfile.open_writer path in
       Dsig_audit.Logfile.append w ~client:2 ~op:"appended" ~signature:"xyz";
       Dsig_audit.Logfile.close_writer w);
      match Dsig_audit.Logfile.load path with
      | Error e -> Alcotest.fail e
      | Ok loaded -> Alcotest.(check int) "appended" 6 (Dsig_audit.Audit.length loaded))

let test_logfile_corruption () =
  let path = Filename.temp_file "dsig-test" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let write s =
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc
      in
      write "NOTALOG!";
      (match Dsig_audit.Logfile.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad magic accepted");
      (let w = Dsig_audit.Logfile.open_writer (path ^ ".2") in
       Dsig_audit.Logfile.append w ~client:1 ~op:"full" ~signature:"s";
       Dsig_audit.Logfile.close_writer w);
      let data =
        let ic = open_in_bin (path ^ ".2") in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove (path ^ ".2");
        s
      in
      write (String.sub data 0 (String.length data - 1));
      match Dsig_audit.Logfile.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated record accepted")

(* --- deployment over the simulated network --- *)

let test_deploy_fast_and_slow () =
  let sim = Sim.create () in
  let deploy = Dsig_deploy.Deploy.create sim small_cfg ~n:3 () in
  (* before any background activity: signing works (synchronous refill),
     verification succeeds on the slow path *)
  let m0 = "before announcements" in
  let s0 = Dsig_deploy.Deploy.sign deploy ~signer:0 ~hint:[ 1 ] m0 in
  Alcotest.(check bool) "slow verify ok" true
    (Dsig_deploy.Deploy.verify deploy ~verifier:1 ~msg:m0 s0);
  let st1 = Verifier.stats (Dsig_deploy.Deploy.verifier deploy 1) in
  Alcotest.(check int) "slow path used" 1 st1.Verifier.slow;
  (* run the simulation: background planes fill queues and announcements
     propagate with network latency *)
  Sim.run ~until:10_000.0 sim;
  Alcotest.(check bool) "announcements flowed" true
    (Dsig_deploy.Deploy.announcements_delivered deploy > 0);
  let m1 = "after announcements" in
  let s1 = Dsig_deploy.Deploy.sign deploy ~signer:0 ~hint:[ 1 ] m1 in
  Alcotest.(check bool) "fast verify ok" true
    (Dsig_deploy.Deploy.verify deploy ~verifier:1 ~msg:m1 s1);
  Alcotest.(check bool) "fast path used" true (st1.Verifier.fast >= 1);
  (* canVerifyFast reflects the cache *)
  Alcotest.(check bool) "canVerifyFast" true
    (Verifier.can_verify_fast (Dsig_deploy.Deploy.verifier deploy 1) s1)

let test_deploy_sent_counts () =
  let sim = Sim.create () in
  let telemetry = Dsig_telemetry.Telemetry.create () in
  let options = Options.default |> Options.with_telemetry telemetry in
  let deploy = Dsig_deploy.Deploy.create sim small_cfg ~n:2 ~options () in
  Sim.run ~until:5_000.0 sim;
  (* every sent announcement eventually delivered (single hop, no loss) *)
  Alcotest.(check int) "sent = delivered"
    (Dsig_deploy.Deploy.announcements_sent deploy)
    (Dsig_deploy.Deploy.announcements_delivered deploy);
  Alcotest.(check bool) "some were sent" true (Dsig_deploy.Deploy.announcements_sent deploy > 0);
  (* the registry publishes the same counts, not a copy of them *)
  let snap = Dsig_telemetry.Telemetry.snapshot telemetry in
  let counter name =
    match Dsig_telemetry.Registry.Snapshot.find snap name with
    | Some (Dsig_telemetry.Registry.Snapshot.Counter n) -> n
    | _ -> Alcotest.fail (name ^ " missing")
  in
  Alcotest.(check int) "registry sent"
    (Dsig_deploy.Deploy.announcements_sent deploy)
    (counter "dsig_deploy_announcements_sent_total");
  Alcotest.(check int) "registry delivered"
    (Dsig_deploy.Deploy.announcements_delivered deploy)
    (counter "dsig_deploy_announcements_delivered_total")

(* --- announcement delivery past the cache bound --- *)

(* Announcements delivered one at a time: each is admitted, the cache
   keeps the newest [cache_batches] (2 here) and the gauge follows it. *)
let test_delivery_capped () =
  let _cfg, signer, vs = Test_core.manual_party ~verifiers:[ 1 ] () in
  (* several batches' worth of announcements: drain the queue between
     steps so the refill condition re-triggers *)
  for b = 1 to 3 do
    ignore (Signer.background_step signer);
    if b < 3 then
      for i = 1 to 8 do
        ignore (Signer.sign signer (Printf.sprintf "drain-%d-%d" b i))
      done
  done;
  let anns = List.map snd (Signer.drain_outbox signer) in
  Alcotest.(check int) "three announcements" 3 (List.length anns);
  let v = List.nth vs 0 in
  Alcotest.(check int) "all accepted" 3 (List.length (List.filter (Verifier.deliver v) anns));
  Alcotest.(check int) "cached (capped at cache_batches=2)" 2 (Verifier.cached_batches v ~signer:0);
  (* a poisoned announcement is refused; the good one still lands *)
  let _cfg, signer2, vs2 = Test_core.manual_party ~verifiers:[ 1 ] () in
  ignore (Signer.background_step signer2);
  for i = 1 to 8 do
    ignore (Signer.sign signer2 (Printf.sprintf "drain2-%d" i))
  done;
  ignore (Signer.background_step signer2);
  let anns2 = List.map snd (Signer.drain_outbox signer2) in
  let poisoned =
    match anns2 with
    | a :: rest -> { a with Dsig.Batch.root_sig = String.make 64 '\x00' } :: rest
    | [] -> []
  in
  let v2 = List.nth vs2 0 in
  Alcotest.(check (list bool)) "one rejected, one accepted" [ false; true ]
    (List.map (Verifier.deliver v2) poisoned);
  Alcotest.(check int) "only the good one cached" 1 (Verifier.cached_batches v2 ~signer:0)

(* The cached-batch gauge is read from the cache itself: after every
   kind of change it equals the per-signer counts summed. *)
let test_cached_gauge () =
  let cfg = Config.make ~batch_size:4 ~queue_threshold:4 ~cache_batches:2 (Config.wots ~d:4) in
  let rng = Dsig_util.Rng.create 21L in
  let pki = Pki.create () in
  let keys =
    Array.init 2 (fun id ->
        let sk, pk = Dsig_ed25519.Eddsa.generate rng in
        Pki.bind pki ~id ~epoch:0 pk;
        sk)
  in
  let telemetry = Dsig_telemetry.Telemetry.create () in
  let options = Options.default |> Options.with_telemetry telemetry in
  let v = Verifier.create cfg ~id:9 ~pki ~options () in
  let deliver signer batch_id =
    let b = Batch.make cfg ~signer_id:signer ~batch_id ~eddsa:keys.(signer) ~rng in
    Alcotest.(check bool) "admitted" true (Verifier.deliver v (Batch.announcement cfg b))
  in
  let expect what n =
    let cached = Verifier.cached_batches v ~signer:0 + Verifier.cached_batches v ~signer:1 in
    Alcotest.(check int) (what ^ ": cache") n cached;
    match
      Dsig_telemetry.Registry.Snapshot.find
        (Dsig_telemetry.Telemetry.snapshot telemetry)
        "dsig_verifier_cached_batches"
    with
    | Some (Dsig_telemetry.Registry.Snapshot.Gauge g) ->
        Alcotest.(check int) (what ^ ": gauge") cached (int_of_float g)
    | _ -> Alcotest.fail "no cached-batch gauge"
  in
  expect "empty" 0;
  deliver 0 1L;
  deliver 0 1L;
  expect "duplicate delivery" 1;
  deliver 0 2L;
  deliver 0 3L;
  deliver 1 1L;
  expect "FIFO eviction past cache_batches" 3;
  Alcotest.(check int) "boundary purge" 1 (Verifier.purge_signer ~from_batch:3L v ~signer:0);
  expect "purge ~from_batch" 2;
  Alcotest.(check int) "full purge" 1 (Verifier.purge_signer v ~signer:0);
  expect "full purge" 1

(* --- cross-runtime interop: a Runtime-produced signature verifies in a
   Deploy-style verifier fed announcements over the tcp codec --- *)

let test_cross_runtime_interop () =
  let rng = Dsig_util.Rng.create 77L in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let rt = Runtime.create small_cfg ~id:0 ~eddsa:sk ~seed:5L () in
  Fun.protect
    ~finally:(fun () -> Runtime.shutdown rt)
    (fun () ->
      let msg = "interop" in
      let signature = Runtime.sign rt msg in
      (* announcements survive a byte-level encode/decode roundtrip *)
      let anns =
        List.map
          (fun a ->
            match Batch.decode_announcement (Batch.encode_announcement a) with
            | Ok a' -> a'
            | Error e -> Alcotest.fail e)
          (Runtime.drain_announcements rt)
      in
      let v = Verifier.create small_cfg ~id:9 ~pki () in
      List.iter (fun a -> ignore (Verifier.deliver v a)) anns;
      Alcotest.(check bool) "verifies fast" true (Verifier.verify v ~msg signature);
      Alcotest.(check int) "fast path" 1 (Verifier.stats v).Verifier.fast)

(* --- wire fuzzing --- *)

let wire_fuzz =
  let open QCheck in
  let fuzz_sys = lazy (System.create small_cfg ~n:2 ()) in
  [
    Test.make ~name:"decode never crashes on random bytes" ~count:300
      (string_of_size Gen.(0 -- 2000))
      (fun junk ->
        List.for_all
          (fun hbss ->
            let cfg = Config.make ~batch_size:8 hbss in
            match Wire.decode cfg junk with Ok _ | Error _ -> true)
          [ Config.wots ~d:4; Config.hors_factorized ~k:32; Config.hors_merklified ~k:32 () ]);
    Test.make ~name:"mutated genuine signatures never crash verify" ~count:100
      (pair (int_range 0 5000) (int_range 0 255))
      (fun (pos, byte) ->
        let sys = Lazy.force fuzz_sys in
        let msg = "fuzz target" in
        let s = System.sign sys ~signer:0 ~hint:[ 1 ] msg in
        let pos = pos mod String.length s in
        let mutated = String.mapi (fun i c -> if i = pos then Char.chr byte else c) s in
        (* must not raise; result may be either (byte may equal original) *)
        ignore (System.verify sys ~verifier:1 ~msg mutated);
        true);
    Test.make ~name:"truncations never crash decode/verify" ~count:60 (int_range 0 1455)
      (fun len ->
        let sys = Lazy.force fuzz_sys in
        let msg = "truncate" in
        let s = System.sign sys ~signer:0 msg in
        let len = len mod String.length s in
        not (System.verify sys ~verifier:1 ~msg (String.sub s 0 len)));
  ]

(* --- hash edge cases around BLAKE3 chunk/tree boundaries --- *)

let test_blake3_boundaries () =
  let lens = [ 0; 1; 63; 64; 65; 1023; 1024; 1025; 2047; 2048; 2049; 3072; 4096; 5000 ] in
  let digests =
    List.map (fun n -> Dsig_hashes.Blake3.digest (String.make n 'a')) lens
  in
  (* all distinct *)
  let sorted = List.sort_uniq compare digests in
  Alcotest.(check int) "distinct at boundaries" (List.length lens) (List.length sorted);
  (* appending one byte always changes the digest *)
  List.iter
    (fun n ->
      let a = Dsig_hashes.Blake3.digest (String.make n 'x') in
      let b = Dsig_hashes.Blake3.digest (String.make (n + 1) 'x') in
      Alcotest.(check bool) (Printf.sprintf "len %d vs %d" n (n + 1)) false (a = b))
    [ 1023; 1024; 2047; 2048 ]

(* --- field-arithmetic edge values --- *)

let test_fe_edges () =
  let open Dsig_ed25519 in
  let p = Bn.sub (Bn.shift_left Bn.one 255) (Bn.of_int 19) in
  (* values straddling the modulus, non-canonical encodings included,
     encode canonically *)
  List.iter
    (fun v ->
      let fe = Fe25519.of_bytes (Bn.to_bytes_le ~length:32 v) in
      let back = Bn.of_bytes_le (Fe25519.to_bytes fe) in
      Alcotest.(check bool) "reduced" true (Bn.compare back p < 0);
      Alcotest.(check bool) "congruent" true (Bn.equal (Bn.rem v p) back))
    [
      Bn.zero; Bn.one; Bn.sub p Bn.one; p; Bn.add p Bn.one;
      Bn.sub (Bn.shift_left Bn.one 255) Bn.one (* 2^255-1: non-canonical encodings *);
      Bn.of_int 19; Bn.sub p (Bn.of_int 19);
    ];
  (* of_bytes ignores bit 255 per RFC 8032 *)
  let x = String.make 31 '\x00' ^ "\x80" in
  Alcotest.(check bool) "top bit ignored" true (Fe25519.is_zero (Fe25519.of_bytes x));
  Alcotest.(check bool) "inv zero is zero" true (Fe25519.is_zero (Fe25519.inv Fe25519.zero))

let suites =
  [
    ( "ext.revocation", [ Alcotest.test_case "revocation lists" `Quick test_revocation ] );
    ( "ext.mss",
      [
        Alcotest.test_case "roundtrip + exhaustion" `Quick test_mss_roundtrip;
        Alcotest.test_case "statefulness" `Quick test_mss_statefulness;
      ] );
    ("ext.hors_few_time", [ Alcotest.test_case "r=4 budget" `Quick test_hors_few_time ]);
    ( "ext.logfile",
      [
        Alcotest.test_case "save/load/append" `Quick test_logfile_roundtrip;
        Alcotest.test_case "corruption detected" `Quick test_logfile_corruption;
      ] );
    ( "ext.deploy",
      [
        Alcotest.test_case "fast/slow over simnet" `Quick test_deploy_fast_and_slow;
        Alcotest.test_case "announcement conservation" `Quick test_deploy_sent_counts;
      ] );
    ( "ext.batched_delivery",
      [
        Alcotest.test_case "delivery capped at cache_batches" `Quick test_delivery_capped;
        Alcotest.test_case "cached-batch gauge follows the cache" `Quick test_cached_gauge;
        Alcotest.test_case "cross-runtime interop" `Quick test_cross_runtime_interop;
      ] );
    ("ext.fuzz", List.map (QCheck_alcotest.to_alcotest ~long:false) wire_fuzz);
    ( "ext.edges",
      [
        Alcotest.test_case "blake3 boundaries" `Quick test_blake3_boundaries;
        Alcotest.test_case "fe25519 edges" `Quick test_fe_edges;
      ] );
  ]
