(* The Domain-based two-plane runtime: real parallel background key
   generation feeding a foreground signer. *)

open Dsig

let cfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4)

let roundtrip cfg =
  let rng = Dsig_util.Rng.create 21L in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:3 ~epoch:0 pk;
  let rt = Runtime.create cfg ~id:3 ~eddsa:sk ~seed:77L () in
  Fun.protect
    ~finally:(fun () -> Runtime.shutdown rt)
    (fun () ->
      let verifier = Verifier.create cfg ~id:9 ~pki () in
      (* sign across several batch boundaries while the background
         domain keeps refilling *)
      let msgs = List.init 30 (fun i -> Printf.sprintf "parallel message %d" i) in
      let sigs = List.map (fun m -> (m, Runtime.sign rt m)) msgs in
      (* feed announcements to the verifier, then all signatures check
         out on the fast path *)
      List.iter (fun ann -> assert (Verifier.deliver verifier ann)) (Runtime.drain_announcements rt);
      List.iter
        (fun (m, s) ->
          Alcotest.(check bool) ("verifies: " ^ m) true (Verifier.verify verifier ~msg:m s))
        sigs;
      let st = Verifier.stats verifier in
      Alcotest.(check int) "all fast" 30 st.Verifier.fast;
      Alcotest.(check bool) "several batches" true (Runtime.batches_generated rt >= 4);
      (* distinct one-time keys: no two signatures share (batch, index) *)
      let ids =
        List.map
          (fun (_, s) ->
            match Wire.decode cfg s with
            | Ok w -> (w.Wire.batch_id, Wire.key_index w)
            | Error e -> Alcotest.fail e)
          sigs
      in
      Alcotest.(check int) "30 distinct keys" 30 (List.length (List.sort_uniq compare ids)))

(* every one-time scheme the in-simulation signer supports *)
let test_runtime_roundtrip () =
  List.iter roundtrip
    [ cfg; Config.make ~batch_size:8 ~queue_threshold:8 (Config.hors_factorized ~k:32) ]

let test_runtime_shutdown_idempotent () =
  let rng = Dsig_util.Rng.create 22L in
  let sk, _ = Dsig_ed25519.Eddsa.generate rng in
  let rt = Runtime.create cfg ~id:0 ~eddsa:sk ~seed:1L () in
  ignore (Runtime.sign rt "one");
  Runtime.shutdown rt;
  Runtime.shutdown rt;
  Alcotest.(check pass) "no deadlock" () ()

let test_runtime_warm_queue () =
  let rng = Dsig_util.Rng.create 23L in
  let sk, _ = Dsig_ed25519.Eddsa.generate rng in
  let rt = Runtime.create cfg ~id:0 ~eddsa:sk ~seed:2L () in
  Fun.protect
    ~finally:(fun () -> Runtime.shutdown rt)
    (fun () ->
      (* give the background domain a moment to fill the queue *)
      let deadline = Sys.time () +. 5.0 in
      while Runtime.queue_depth rt < cfg.Config.queue_threshold && Sys.time () < deadline do
        Domain.cpu_relax ()
      done;
      Alcotest.(check bool) "queue warmed" true
        (Runtime.queue_depth rt >= cfg.Config.queue_threshold);
      (* with a warm queue, signing does no key generation: it is
         orders of magnitude faster than generating a batch *)
      let t0 = Sys.time () in
      for i = 1 to 8 do
        ignore (Runtime.sign rt (string_of_int i))
      done;
      let per_sign = (Sys.time () -. t0) /. 8.0 in
      Alcotest.(check bool) "foreground sign under 1ms CPU" true (per_sign < 0.001))

(* the translog sink sees every signature [sign] returns, in order *)
let test_runtime_translog () =
  let rng = Dsig_util.Rng.create 24L in
  let sk, _ = Dsig_ed25519.Eddsa.generate rng in
  let logged = Queue.create () in
  let options =
    Options.default
    |> Options.with_translog (fun ~signer ~op ~signature ->
           Queue.add (signer, op, signature) logged)
  in
  let rt = Runtime.create cfg ~id:5 ~eddsa:sk ~seed:3L ~options () in
  Fun.protect
    ~finally:(fun () -> Runtime.shutdown rt)
    (fun () ->
      let signed =
        List.init 20 (fun i ->
            let op = Printf.sprintf "logged %d" i in
            (5, op, Runtime.sign rt op))
      in
      Alcotest.(check (list (triple int string string)))
        "sink got every signature, in order" signed
        (List.of_seq (Queue.to_seq logged)))

(* perfbench reads these series by name and takes a missing one as 0,
   so a rename would silently zero its per-layer rows *)
let test_runtime_series () =
  let rng = Dsig_util.Rng.create 25L in
  let sk, _ = Dsig_ed25519.Eddsa.generate rng in
  let tel = Dsig_telemetry.Telemetry.create () in
  let options = Options.default |> Options.with_telemetry tel in
  let rt = Runtime.create cfg ~id:0 ~eddsa:sk ~seed:4L ~options () in
  let n = 20 in
  Fun.protect
    ~finally:(fun () -> Runtime.shutdown rt)
    (fun () ->
      for i = 1 to n do
        ignore (Runtime.sign rt (Printf.sprintf "series %d" i))
      done);
  let module Snapshot = Dsig_telemetry.Registry.Snapshot in
  let snap = Dsig_telemetry.Telemetry.snapshot tel in
  List.iter
    (fun suffix ->
      let name = "dsig_runtime_" ^ suffix in
      Alcotest.(check bool) name true (Snapshot.find snap name <> None))
    [
      "batch_gen_us";
      "sign_waits_total";
      "acks_total";
      "reannounces_total";
      "signatures_total";
      "batches_total";
      "sign_us";
      "queue_depth";
    ];
  Alcotest.(check (option int)) "signatures_total counts every signature" (Some n)
    (match Snapshot.find snap "dsig_runtime_signatures_total" with
    | Some (Snapshot.Counter c) -> Some c
    | _ -> None)

let suites =
  [
    ( "runtime",
      [
        Alcotest.test_case "parallel roundtrip" `Quick test_runtime_roundtrip;
        Alcotest.test_case "shutdown idempotent" `Quick test_runtime_shutdown_idempotent;
        Alcotest.test_case "warm queue fast path" `Quick test_runtime_warm_queue;
        Alcotest.test_case "translog sink sees every signature" `Quick test_runtime_translog;
        Alcotest.test_case "perfbench series exist" `Quick test_runtime_series;
      ] );
  ]
