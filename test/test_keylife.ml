(* The key lifecycle plane (ISSUE 9): signed revocation records
   (codec totality, authority-signature enforcement, idempotent
   replay, boundary tightening), the zero-downtime rotation
   coordinator (ACK-drain, timeout and implicit cutover paths),
   verifier-side cache purges, and end-to-end revocation propagation
   across the 3-node deployment. *)

open Dsig
module Eddsa = Dsig_ed25519.Eddsa
module Rng = Dsig_util.Rng
module Revocation = Dsig_keylife.Revocation
module Rotation = Dsig_keylife.Rotation
module Sim = Dsig_simnet.Sim
module Net = Dsig_simnet.Net
module Deploy = Dsig_deploy.Deploy
module Tel = Dsig_telemetry.Telemetry

let tel () = Tel.create ()
let authority = lazy (Eddsa.generate (Rng.create 913L))
let authority_sk () = fst (Lazy.force authority)
let authority_vk () = Option.get (Eddsa.verifying_key (snd (Lazy.force authority)))

let sample_record =
  {
    Revocation.rev_signer = 3;
    rev_epoch = 2;
    rev_boundary = Revocation.From 41L;
    rev_issued_us = 123_456L;
    rev_authority = 9;
  }

(* --- revocation codec --- *)

let test_revocation_roundtrip () =
  let encoded = Revocation.issue ~authority_sk:(authority_sk ()) sample_record in
  Alcotest.(check int) "fixed size" Revocation.size (String.length encoded);
  (match Revocation.decode encoded with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok r -> Alcotest.(check bool) "decode roundtrips" true (r = sample_record));
  (match Revocation.verify ~authority:(authority_vk ()) encoded with
  | Error e -> Alcotest.failf "verify: %s" e
  | Ok r -> Alcotest.(check bool) "verify roundtrips" true (r = sample_record));
  let total = { sample_record with Revocation.rev_boundary = Revocation.Total } in
  let encoded_total = Revocation.issue ~authority_sk:(authority_sk ()) total in
  match Revocation.verify ~authority:(authority_vk ()) encoded_total with
  | Ok r -> Alcotest.(check bool) "total roundtrips" true (r = total)
  | Error e -> Alcotest.failf "total: %s" e

let test_revocation_tamper () =
  let encoded = Revocation.issue ~authority_sk:(authority_sk ()) sample_record in
  (* every single-byte flip must fail verification — body flips break
     the signature, signature flips break themselves *)
  for pos = 8 to String.length encoded - 1 do
    let b = Bytes.of_string encoded in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
    match Revocation.verify ~authority:(authority_vk ()) (Bytes.to_string b) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "flip at %d verified" pos
  done;
  (* the wrong authority key never verifies *)
  let _, other_pk = Eddsa.generate (Rng.create 914L) in
  (match Revocation.verify ~authority:(Option.get (Eddsa.verifying_key other_pk)) encoded with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong authority key verified");
  (* truncations are total errors *)
  for cut = 0 to String.length encoded - 1 do
    match Revocation.decode (String.sub encoded 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d decoded" cut
  done

(* --- enforcement: apply, replay, tighten --- *)

let issue boundary =
  Revocation.issue ~authority_sk:(authority_sk ())
    {
      Revocation.rev_signer = 0;
      rev_epoch = 0;
      rev_boundary = boundary;
      rev_issued_us = 1L;
      rev_authority = 9;
    }

let test_enforce_semantics () =
  let pki = Pki.create () in
  let _, pk = Eddsa.generate (Rng.create 21L) in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let purges = ref [] in
  let enforce encoded =
    Revocation.enforce ~pki ~authority:(authority_vk ())
      ~purge:(fun ~signer ~from_batch -> purges := (signer, from_batch) :: !purges)
      encoded
  in
  let from5 = issue (Revocation.From 5L) in
  (match enforce from5 with
  | Revocation.Applied _ -> ()
  | _ -> Alcotest.fail "first From not applied");
  Alcotest.(check bool) "boundary recorded" true (Pki.revocation pki 0 = `From 5L);
  Alcotest.(check bool) "pre-boundary still allowed" true (Pki.allowed pki ~id:0 ~batch:4L <> None);
  Alcotest.(check bool) "post-boundary barred" true (Pki.allowed pki ~id:0 ~batch:5L = None);
  Alcotest.(check bool) "purge ran with the boundary" true
    (!purges = [ (0, Some 5L) ]);
  (* replaying the same record touches nothing *)
  (match enforce from5 with
  | Revocation.Replayed _ -> ()
  | _ -> Alcotest.fail "replay not detected");
  Alcotest.(check int) "purge not re-run on replay" 1 (List.length !purges);
  (* a looser boundary is a replay, a tighter one applies *)
  (match enforce (issue (Revocation.From 9L)) with
  | Revocation.Replayed _ -> ()
  | _ -> Alcotest.fail "looser boundary not treated as replay");
  (match enforce (issue (Revocation.From 2L)) with
  | Revocation.Applied _ -> ()
  | _ -> Alcotest.fail "tighter boundary not applied");
  Alcotest.(check bool) "boundary tightened" true (Pki.revocation pki 0 = `From 2L);
  (* total revocation subsumes every boundary *)
  (match enforce (issue Revocation.Total) with
  | Revocation.Applied _ -> ()
  | _ -> Alcotest.fail "total not applied");
  Alcotest.(check bool) "total recorded" true (Pki.revocation pki 0 = `Total);
  (match enforce (issue (Revocation.From 1L)) with
  | Revocation.Replayed _ -> ()
  | _ -> Alcotest.fail "boundary after total not a replay");
  (* garbage and unsigned bytes are rejected, never raised *)
  (match enforce "garbage" with
  | Revocation.Rejected _ -> ()
  | _ -> Alcotest.fail "garbage not rejected");
  match enforce (String.make Revocation.size '\x00') with
  | Revocation.Rejected _ -> ()
  | _ -> Alcotest.fail "zero frame not rejected"

(* --- rotation coordinator --- *)

let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4)

let make_pair ?(clock = fun () -> 0.0) () =
  let sk, pk = Eddsa.generate (Rng.create 31L) in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let telemetry = Tel.create ~clock () in
  let options = Options.default |> Options.with_telemetry telemetry in
  let signer = Signer.create cfg ~id:0 ~eddsa:sk ~rng:(Rng.create 32L) ~options ~verifiers:[ 1 ] () in
  let verifier = Verifier.create cfg ~id:1 ~pki () in
  (signer, verifier, pki)

let pump signer verifier =
  List.iter (fun (_, ann) -> ignore (Verifier.deliver verifier ann)) (Signer.drain_outbox signer)

let test_rotation_ack_drain () =
  let signer, verifier, _ = make_pair () in
  let s1 = Signer.sign signer "pre-rotation" in
  pump signer verifier;
  Alcotest.(check bool) "pre-rotation verifies" true
    (Verifier.verify verifier ~msg:"pre-rotation" s1);
  let rot = Rotation.create ~clock:(fun () -> 0.0) signer in
  let epoch, batch_id = Rotation.start rot in
  Alcotest.(check int) "stages epoch 1" 1 epoch;
  Alcotest.(check bool) "in flight" true (Rotation.in_flight rot);
  (match Rotation.step rot with
  | Rotation.Staged { unacked; _ } -> Alcotest.(check bool) "waiting on acks" true (unacked > 0)
  | _ -> Alcotest.fail "not staged");
  (* deliver the staged announcement and acknowledge it *)
  pump signer verifier;
  Control_plane.deliver_ack (Control_plane.of_signer signer)
    { Batch.ack_verifier = 1; ack_signer = 0; ack_batch = batch_id };
  (match Rotation.step rot with
  | Rotation.Cut_over e -> Alcotest.(check int) "cut over to epoch 1" 1 e
  | _ -> Alcotest.fail "acked rotation did not cut over");
  Alcotest.(check int) "signer epoch advanced" 1 (Signer.epoch signer);
  Alcotest.(check bool) "not in flight" false (Rotation.in_flight rot);
  (* both generations' signatures verify: old by cert, new by the
     staged batch *)
  let s2 = Signer.sign signer "post-rotation" in
  pump signer verifier;
  Alcotest.(check bool) "post-rotation verifies" true
    (Verifier.verify verifier ~msg:"post-rotation" s2);
  Alcotest.(check bool) "pre-rotation still verifies" true
    (Verifier.verify verifier ~msg:"pre-rotation" s1);
  Signer.close signer

let test_rotation_timeout () =
  let now = ref 0.0 in
  let signer, _, _ = make_pair ~clock:(fun () -> !now) () in
  let rot = Rotation.create ~max_wait_us:500.0 ~clock:(fun () -> !now) signer in
  ignore (Rotation.start rot);
  (* nobody acks: a partitioned verifier cannot hold the rotation
     hostage past the wait bound *)
  (match Rotation.step rot with
  | Rotation.Staged _ -> ()
  | _ -> Alcotest.fail "cut over before the wait expired");
  now := 1_000.0;
  (match Rotation.step rot with
  | Rotation.Cut_over 1 -> ()
  | _ -> Alcotest.fail "wait expiry did not cut over");
  Signer.close signer

let test_rotation_implicit_cutover () =
  let signer, verifier, _ = make_pair () in
  let rot = Rotation.create ~clock:(fun () -> 0.0) signer in
  ignore (Rotation.start rot);
  (* drain the dying generation's queue: the signer cuts over on its
     own the moment the default queue empties *)
  let i = ref 0 in
  while Signer.epoch signer = 0 && !i < 32 do
    incr i;
    ignore (Signer.sign signer (Printf.sprintf "drain-%d" !i))
  done;
  Alcotest.(check int) "implicit cutover happened" 1 (Signer.epoch signer);
  (match Rotation.step rot with
  | Rotation.Cut_over 1 -> ()
  | _ -> Alcotest.fail "coordinator missed the implicit cutover");
  let s = Signer.sign signer "after implicit" in
  pump signer verifier;
  Alcotest.(check bool) "still signing" true (Verifier.verify verifier ~msg:"after implicit" s);
  Signer.close signer

(* --- verifier purge + directory enforcement --- *)

let test_purge_signer () =
  let signer, verifier, pki = make_pair () in
  let s1 = Signer.sign signer "early" in
  pump signer verifier;
  Alcotest.(check bool) "fast path primed" true (Verifier.can_verify_fast verifier s1);
  let boundary =
    match Wire.peek_header s1 with
    | Some (_, b) -> Int64.add b 1L
    | None -> Alcotest.fail "unparseable wire header"
  in
  (* a boundary purge beyond the cached batch keeps the cache *)
  Alcotest.(check int) "nothing past the boundary yet" 0
    (Verifier.purge_signer ~from_batch:boundary verifier ~signer:0);
  Alcotest.(check bool) "cache kept" true (Verifier.can_verify_fast verifier s1);
  (* a full purge evicts the cached roots *)
  Alcotest.(check bool) "full purge evicts" true (Verifier.purge_signer verifier ~signer:0 > 0);
  Alcotest.(check bool) "fast path gone" false (Verifier.can_verify_fast verifier s1);
  Alcotest.(check bool) "slow path still verifies" true (Verifier.verify verifier ~msg:"early" s1);
  (* with the directory barred from the boundary, later batches die on
     both paths while the early signature keeps verifying *)
  Pki.revoke_from pki ~id:0 ~batch:boundary;
  Alcotest.(check bool) "pre-boundary verifies" true (Verifier.verify verifier ~msg:"early" s1);
  let rec spend i =
    if i > 40 then Alcotest.fail "never reached the barred batch"
    else
      let msg = Printf.sprintf "late-%d" i in
      let s = Signer.sign signer msg in
      match Wire.peek_header s with
      | Some (_, b) when Int64.compare b boundary >= 0 -> (msg, s)
      | _ -> spend (i + 1)
  in
  let msg, s2 = spend 0 in
  pump signer verifier;
  Alcotest.(check bool) "post-boundary rejected" false (Verifier.verify verifier ~msg s2);
  Signer.close signer

(* --- 3-node deployment: revocation reaches every verifier --- *)

let test_deploy_revocation_propagates () =
  let sim = Sim.create () in
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let options = Options.default |> Options.with_telemetry telemetry in
  let d = Deploy.create sim cfg ~n:3 ~options ~reannounce_poll_us:100.0 () in
  Sim.run ~until:1_000.0 sim;
  (* pre-revocation traffic everyone accepts *)
  let pre = ref [] in
  for i = 1 to 8 do
    let msg = Printf.sprintf "pre-%d" i in
    let s = Deploy.sign d ~signer:0 msg in
    pre := (msg, s) :: !pre;
    Sim.run ~until:(Sim.now sim +. 150.0) sim
  done;
  List.iter
    (fun (msg, s) ->
      Alcotest.(check bool) "verifier 1 accepts pre" true (Deploy.verify d ~verifier:1 ~msg s);
      Alcotest.(check bool) "verifier 2 accepts pre" true (Deploy.verify d ~verifier:2 ~msg s))
    !pre;
  let boundary =
    match Wire.peek_header (snd (List.hd !pre)) with
    | Some (_, b) -> Int64.add b 1L
    | None -> Alcotest.fail "unparseable header"
  in
  (* node 0 revokes its own compromised key from [boundary] on; the
     record rides the deployment's own message plane to nodes 1 and 2 *)
  let encoded = Deploy.revoke ~from_batch:boundary d ~signer:0 () in
  Sim.run ~until:(Sim.now sim +. 5_000.0) sim;
  for node = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d directory barred" node)
      true
      (Pki.revocation (Deploy.pki d node) 0 = `From boundary)
  done;
  (* a replayed record (gossip re-send) is acknowledged but changes
     nothing *)
  Deploy.deliver_revocation d ~node:1 encoded;
  Alcotest.(check bool) "replay keeps the boundary" true
    (Pki.revocation (Deploy.pki d 1) 0 = `From boundary);
  (* post-revocation signatures are rejected by every verifier, on the
     fast path (cached roots purged) and the slow path (directory) *)
  let rec barred i =
    if i > 60 then Alcotest.fail "never reached the barred batch"
    else
      let msg = Printf.sprintf "post-%d" i in
      let s = Deploy.sign d ~signer:0 msg in
      Sim.run ~until:(Sim.now sim +. 150.0) sim;
      match Wire.peek_header s with
      | Some (_, b) when Int64.compare b boundary >= 0 -> (msg, s)
      | _ -> barred (i + 1)
  in
  let msg, s = barred 0 in
  Alcotest.(check bool) "verifier 1 rejects post" false (Deploy.verify d ~verifier:1 ~msg s);
  Alcotest.(check bool) "verifier 2 rejects post" false (Deploy.verify d ~verifier:2 ~msg s);
  (* pre-revocation signatures keep verifying: the boundary does not
     disavow history *)
  List.iter
    (fun (msg, s) ->
      Alcotest.(check bool) "verifier 1 keeps pre" true (Deploy.verify d ~verifier:1 ~msg s);
      Alcotest.(check bool) "verifier 2 keeps pre" true (Deploy.verify d ~verifier:2 ~msg s))
    !pre;
  Deploy.close d

let suites =
  [
    ( "keylife-revocation",
      [
        Alcotest.test_case "record roundtrip" `Quick test_revocation_roundtrip;
        Alcotest.test_case "tamper and truncation rejected" `Quick test_revocation_tamper;
        Alcotest.test_case "enforce: apply, replay, tighten" `Quick test_enforce_semantics;
      ] );
    ( "keylife-rotation",
      [
        Alcotest.test_case "ack-drain cutover" `Quick test_rotation_ack_drain;
        Alcotest.test_case "timeout cutover" `Quick test_rotation_timeout;
        Alcotest.test_case "implicit cutover detected" `Quick test_rotation_implicit_cutover;
      ] );
    ( "keylife-containment",
      [
        Alcotest.test_case "verifier purge + directory boundary" `Quick test_purge_signer;
        Alcotest.test_case "revocation reaches every verifier" `Quick
          test_deploy_revocation_propagates;
      ] );
  ]
