(* Microbenchmarks of the real crypto substrates (Bechamel, monotonic
   clock). These are this host's numbers for the pure-OCaml
   implementations — the "measured" column of Table 1 builds on them. *)

open Bechamel
module H = Dsig_hashes
module E = Dsig_ed25519.Eddsa

(* A self-contained foreground signer on its own telemetry bundle; the
   background plane is refilled inline every 32 signatures so the queue
   never empties during the timing loop. Bechamel times the refills too,
   so these rows mostly measure key generation; [sign_fg] below times
   the foreground alone. *)
let sign_test ~name ~lifecycle () =
  Test.make ~name
    (Staged.stage
       (let cfg =
          Dsig.Config.make ~batch_size:64 ~queue_threshold:128 (Dsig.Config.wots ~d:4)
        in
        let tel = Dsig_telemetry.Telemetry.create () in
        if lifecycle then Dsig_telemetry.Lifecycle.enable tel.Dsig_telemetry.Telemetry.lifecycle;
        let rng = Dsig_util.Rng.create 7L in
        let sk, _ = E.generate rng in
        let signer =
          Dsig.Signer.create cfg ~id:0 ~eddsa:sk ~rng
            ~options:Dsig.Options.(default |> with_telemetry tel)
            ~verifiers:[ 1 ] ()
        in
        Dsig.Signer.background_fill signer;
        let c = ref 0 in
        fun () ->
          incr c;
          if !c land 31 = 0 then begin
            Dsig.Signer.background_fill signer;
            ignore (Dsig.Signer.drain_outbox signer)
          end;
          Dsig.Signer.sign signer "12345678"))

(* The foreground sign alone on a warm queue: each of 30 rounds refills
   the queue outside the timed region, then times 64 calls of
   [Signer.sign] on the monotonic clock and counts their minor words.
   Returns the median µs per sign over the rounds and the minor words
   per sign over all of them (deterministic). Both counts are fixed:
   they decide what the pinned gate rows measure. *)
let sign_fg () =
  let rounds = 30 and per_round = 64 in
  let cfg = Dsig.Config.make ~batch_size:64 ~queue_threshold:128 (Dsig.Config.wots ~d:4) in
  let tel = Dsig_telemetry.Telemetry.create () in
  let rng = Dsig_util.Rng.create 7L in
  let sk, _ = E.generate rng in
  let signer =
    Dsig.Signer.create cfg ~id:0 ~eddsa:sk ~rng
      ~options:Dsig.Options.(default |> with_telemetry tel)
      ~verifiers:[ 1 ] ()
  in
  let clock = Dsig_telemetry.Tracer.mono_clock_us in
  let times = Array.make rounds 0.0 and words = ref 0.0 in
  for r = 0 to rounds - 1 do
    Dsig.Signer.background_fill signer;
    ignore (Dsig.Signer.drain_outbox signer);
    let w0 = Gc.minor_words () in
    let t0 = clock () in
    for _ = 1 to per_round do
      ignore (Dsig.Signer.sign signer "12345678")
    done;
    let t1 = clock () in
    words := !words +. (Gc.minor_words () -. w0);
    times.(r) <- (t1 -. t0) /. float_of_int per_round
  done;
  Array.sort compare times;
  (times.(rounds / 2), Float.round (!words /. float_of_int (rounds * per_round)))

(* One signature checked with Verifier.check. [~slow:false] is the warm
   hinted fast path: the verifier has the batch announcement. [~slow:true]
   is the slow path (paper Fig. 8, wrong hint): no announcement and the
   EdDSA cache off, so every call checks the root signature inline under
   the PKI's verifying key. The closure fails if a call takes any other
   path. *)
let dsig_verify ~slow =
  let cfg =
    if slow then Dsig.Config.make ~eddsa_verify_cache:false (Dsig.Config.wots ~d:4)
    else Dsig.Config.default
  in
  let tel = Dsig_telemetry.Telemetry.create () in
  let options = Dsig.Options.(default |> with_telemetry tel) in
  let rng = Dsig_util.Rng.create 9L in
  let sk, pk = E.generate rng in
  let pki = Dsig.Pki.create () in
  Dsig.Pki.bind pki ~id:0 ~epoch:0 pk;
  let signer = Dsig.Signer.create cfg ~id:0 ~eddsa:sk ~rng ~options ~verifiers:[ 1 ] () in
  let verifier = Dsig.Verifier.create cfg ~id:1 ~pki ~options () in
  Dsig.Signer.background_fill signer;
  let msg = "12345678" in
  let wire = Dsig.Signer.sign signer ~hint:[ 1 ] msg in
  let anns = Dsig.Signer.drain_outbox signer in
  if not slow then List.iter (fun (_, a) -> ignore (Dsig.Verifier.deliver verifier a)) anns;
  fun () ->
    match Dsig.Verifier.check verifier ~msg wire with
    | Dsig.Verifier.Fast when not slow -> ()
    | Dsig.Verifier.Slow when slow -> ()
    | v -> failwith ("bench micro: dsig-verify left its path: " ^ Dsig.Verifier.verdict_name v)

(* W-OTS+ (d = 4) verify of one genuine signature; fails on a reject. *)
let wots_verify () =
  let rng = Dsig_util.Rng.create 6L in
  let p4 = Dsig_hbss.Params.Wots.make ~d:4 () in
  let kp = Dsig_hbss.Wots.generate p4 ~seed:(Dsig_util.Rng.bytes rng 32) in
  let msg = "12345678" in
  let wsig = Dsig_hbss.Wots.sign kp ~nonce:(Dsig_util.Rng.bytes rng 16) msg in
  let public_seed = Dsig_hbss.Wots.public_seed kp and pk_digest = Dsig_hbss.Wots.public_key_digest kp in
  fun () ->
    if not (Dsig_hbss.Wots.verify p4 ~public_seed ~pk_digest wsig msg) then
      failwith "bench micro: wots4-verify rejected a genuine signature"

(* Minor-heap words one call of [f] allocates, over [ops] calls after a
   warm-up call. Deterministic for a deterministic [f]. *)
let minor_words_per_op ?(ops = 200) f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to ops do
    f ()
  done;
  Float.round ((Gc.minor_words () -. w0) /. float_of_int ops)

let tests ~verify_fast ~verify_slow ~wots_verify () =
  let rng = Dsig_util.Rng.create 5L in
  let b32 = Dsig_util.Rng.bytes rng 32 in
  let b64 = Dsig_util.Rng.bytes rng 64 in
  let b18 = Dsig_util.Rng.bytes rng 18 in
  let sk, pk = E.generate rng in
  let msg = "12345678" in
  let signature = E.sign sk msg in
  let vk = Option.get (E.verifying_key pk) in
  let p4 = Dsig_hbss.Params.Wots.make ~d:4 () in
  let kp = Dsig_hbss.Wots.generate p4 ~seed:(Dsig_util.Rng.bytes rng 32) in
  let nonce = Dsig_util.Rng.bytes rng 16 in
  [
    Test.make ~name:"sha256/64B" (Staged.stage (fun () -> H.Sha256.digest b64));
    Test.make ~name:"sha512/64B" (Staged.stage (fun () -> H.Sha512.digest b64));
    Test.make ~name:"blake3/64B" (Staged.stage (fun () -> H.Blake3.digest b64));
    Test.make ~name:"haraka256" (Staged.stage (fun () -> H.Haraka.haraka256 b32));
    (* the kernel a W-OTS+ chain step runs, on one reused array: each
       call hashes the previous digest, as a chain does *)
    Test.make ~name:"haraka256-words"
      (Staged.stage
         (let ws = Array.init 8 (fun i -> H.Aes_core.get_word b32 (4 * i)) in
          fun () -> H.Haraka.haraka256_words ws));
    Test.make ~name:"haraka512" (Staged.stage (fun () -> H.Haraka.haraka512 b64));
    Test.make ~name:"chain-hash-18B" (Staged.stage (fun () -> H.Hash.digest H.Hash.Haraka ~length:18 b18));
    Test.make ~name:"eddsa-sign" (Staged.stage (fun () -> E.sign sk msg));
    Test.make ~name:"eddsa-verify" (Staged.stage (fun () -> E.verify pk msg signature));
    Test.make ~name:"eddsa-verify(prepared)" (Staged.stage (fun () -> E.verify_with vk msg signature));
    Test.make ~name:"wots4-sign(cached)"
      (Staged.stage (fun () -> Dsig_hbss.Wots.sign ~allow_reuse:true kp ~nonce msg));
    Test.make ~name:"wots4-verify" (Staged.stage wots_verify);
    Test.make ~name:"dsig-verify(fast)" (Staged.stage verify_fast);
    Test.make ~name:"dsig-verify(slow)" (Staged.stage verify_slow);
    Test.make ~name:"wots4-keygen"
      (Staged.stage
         (let c = ref 0 in
          fun () ->
            incr c;
            Dsig_hbss.Wots.generate p4
              ~seed:(H.Blake3.digest (string_of_int !c))));
    (* telemetry overhead: a hot-path Histogram.add against the
       allocating Stats.add it would replace. The recorder is recycled
       periodically so the growing sample array never dominates RSS
       during the timing loop. *)
    Test.make ~name:"telemetry-histogram-add"
      (Staged.stage
         (let h = Dsig_telemetry.Metric.Histogram.create () in
          let c = ref 0 in
          fun () ->
            incr c;
            Dsig_telemetry.Metric.Histogram.add h (float_of_int (!c land 0xFFF))));
    Test.make ~name:"stats-add"
      (Staged.stage
         (let st = ref (Dsig_simnet.Stats.create ()) in
          let c = ref 0 in
          fun () ->
            incr c;
            if !c land 0xFFFFF = 0 then st := Dsig_simnet.Stats.create ();
            Dsig_simnet.Stats.add !st (float_of_int (!c land 0xFFF))));
    (* lifecycle tracing: the full foreground sign path on a private
       bundle, with the aggregator disabled (one mutable load on the hot
       path — must stay within noise of the seed) and enabled (pays the
       trace-id derivation plus a mutexed table insert) *)
    sign_test ~name:"dsig-sign/lifecycle-off" ~lifecycle:false ();
    sign_test ~name:"dsig-sign/lifecycle-on" ~lifecycle:true ();
    Test.make ~name:"trace-ctx-roundtrip"
      (Staged.stage
         (let module T = Dsig_telemetry.Trace_ctx in
          let ctx = T.make ~signer:3 ~batch_id:41L ~key_index:7 ~origin:3 ~birth_us:1234.5 in
          fun () -> T.decode (T.encode ctx) 0));
  ]

let run () =
  Harness.section "Microbenchmarks: real crypto on this host (pure OCaml, no SIMD)";
  let verify_fast = dsig_verify ~slow:false and verify_slow = dsig_verify ~slow:true in
  let wots_verify = wots_verify () in
  let results = Harness.run_bechamel (tests ~verify_fast ~verify_slow ~wots_verify ()) in
  (* pin the headline sign/verify costs for the --snapshot gate *)
  List.iter
    (fun (name, ns) ->
      let record key = Harness.metric key (ns /. 1000.0) in
      if name = "eddsa-sign" then record "micro_eddsa_sign_us"
      else if name = "eddsa-verify" then record "micro_eddsa_verify_us"
      else if name = "eddsa-verify(prepared)" then record "micro_eddsa_verify_prepared_us"
      else if name = "dsig-sign/lifecycle-off" then record "micro_dsig_sign_us"
      else if name = "haraka256-words" then record "micro_haraka256_words_us"
      else if name = "wots4-verify" then record "micro_wots_verify_us"
      else if name = "wots4-keygen" then record "micro_wots_keygen_us"
      else if name = "dsig-verify(fast)" then record "micro_dsig_verify_fast_us"
      else if name = "dsig-verify(slow)" then record "micro_dsig_verify_slow_us")
    results;
  let fg_us, fg_words = sign_fg () in
  Harness.metric "micro_dsig_sign_fg_us" fg_us;
  let rows =
    ("dsig-sign(fg)", fg_us *. 1000.0) :: results
    |> List.map (fun (name, ns) -> [ name; Printf.sprintf "%.2f" (ns /. 1000.0) ])
    |> List.sort compare
  in
  Harness.print_table ~header:[ "operation"; "us/op" ] rows;
  (* allocation per call on the sign and verify paths, gated exactly *)
  let allocs =
    [
      ("dsig-sign(fg)", "alloc_dsig_sign_words", fg_words);
      ("dsig-verify(fast)", "alloc_dsig_verify_fast_words", minor_words_per_op verify_fast);
      ("dsig-verify(slow)", "alloc_dsig_verify_slow_words", minor_words_per_op verify_slow);
      ("wots4-verify", "alloc_wots_verify_words", minor_words_per_op wots_verify);
    ]
  in
  List.iter (fun (_, key, words) -> Harness.metric key words) allocs;
  Harness.print_table ~header:[ "operation"; "minor words/op" ]
    (List.map (fun (name, _, words) -> [ name; Printf.sprintf "%.0f" words ]) allocs);
  print_endline
    "(the paper's AVX2/AES-NI numbers are 10-100x lower; figure harnesses use the\n\
     paper-calibrated cost model so shapes do not depend on this host)"
