(* The foreground sign path: a signature assembled from the seal-time
   wire bytes equals, byte for byte, Wire.encode of the record built
   from its parts (the HBSS signature, batch proof and root signature);
   a cutover in the middle of a batch discards the rest of it; and a
   used W-OTS+ key still refuses to sign. The two-domain check (each
   key handed out once) is in test_parallel. *)

open Dsig
module Rng = Dsig_util.Rng
module Eddsa = Dsig_ed25519.Eddsa
module Merkle = Dsig_merkle.Merkle
module Tel = Dsig_telemetry.Telemetry
module Registry = Dsig_telemetry.Registry
open Dsig_hbss

(* Message lengths around BLAKE3's 64-byte blocks and 1,024-byte chunks:
   the digest input is the 48-byte salt plus the message. *)
let msg_lengths = [ 0; 1; 7; 8; 15; 16; 17; 63; 64; 65; 200; 975; 976; 977; 1024; 1500; 2048 ]
let message i len = String.init len (fun j -> Char.chr ((i * 31 + j * 7) land 0xff))

(* The signature body from its parts: the HBSS signature under the key
   and nonce, plus the public parts a HORS verifier needs. *)
let reference_body key ~nonce msg =
  match key with
  | Onetime.Wots_key kp -> Wire.Wots_body (Wots.sign kp ~nonce msg)
  | Onetime.Hors_key { kp; forest = None } ->
      let hsig = Hors.sign kp ~nonce msg in
      let p = Hors.params kp in
      let indices = Hors.message_indices p ~public_seed:(Hors.public_seed kp) ~nonce msg in
      let selected = Array.make p.Params.Hors.t false in
      Array.iter (fun i -> selected.(i) <- true) indices;
      let complement =
        Array.of_list
          (List.filteri (fun i _ -> not selected.(i)) (Array.to_list (Hors.public_elements kp)))
      in
      Wire.Hors_fact_body { hsig; complement }
  | Onetime.Hors_key { kp; forest = Some f } ->
      let hsig = Hors.sign kp ~nonce msg in
      let p = Hors.params kp in
      let indices = Hors.message_indices p ~public_seed:(Hors.public_seed kp) ~nonce msg in
      let roots = Array.of_list (Merkle.Forest.roots f) in
      let proofs = Array.map (fun idx -> Merkle.Forest.proof f idx) indices in
      Wire.Hors_merk_body { hsig; roots; proofs }

(* The signer's rng draws, replayed: per batch, Batch.make's key seeds,
   then one 16-byte nonce per key. [next ()] is the encoder of the next
   key in consumption order. *)
let reference cfg ~signer_id ~eddsa ~seed =
  let rng = Rng.create seed in
  let batch_id = ref 0L and pending = Queue.create () in
  fun () ->
    if Queue.is_empty pending then begin
      let batch = Batch.make cfg ~signer_id ~batch_id:!batch_id ~eddsa ~rng in
      let nonces = Array.init (Batch.size batch) (fun _ -> Rng.bytes rng 16) in
      for i = 0 to Batch.size batch - 1 do
        Queue.add (batch, i, nonces.(i)) pending
      done;
      batch_id := Int64.succ !batch_id
    end;
    let batch, i, nonce = Queue.pop pending in
    fun msg ->
      Wire.encode cfg
        {
          Wire.signer_id;
          batch_id = Batch.batch_id batch;
          public_seed = Onetime.public_seed (Batch.key batch i);
          body = reference_body (Batch.key batch i) ~nonce msg;
          batch_proof = Batch.proof batch i;
          root_sig = Batch.root_signature batch;
        }

let schemes =
  [
    ("W-OTS+", Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4));
    ("HORS-F", Config.make ~batch_size:8 ~queue_threshold:8 (Config.hors_factorized ~k:16));
    ("HORS-M", Config.make ~batch_size:8 ~queue_threshold:8 (Config.hors_merklified ~k:16 ()));
  ]

let check_against_reference ~name cfg =
  let sk, _ = Eddsa.generate (Rng.create 90L) in
  let seed = 4242L and signer_id = 3 in
  let options = Options.(default |> with_telemetry (Tel.create ())) in
  let signer =
    Signer.create cfg ~id:signer_id ~eddsa:sk ~rng:(Rng.create seed) ~options ~verifiers:[ 1 ] ()
  in
  let next = reference cfg ~signer_id ~eddsa:sk ~seed in
  let msgs = List.mapi message msg_lengths in
  let got = List.map (Signer.sign signer) msgs in
  List.iter2
    (fun msg wire ->
      Alcotest.(check string)
        (Printf.sprintf "%s %d-byte message" name (String.length msg))
        (next () msg) wire)
    msgs got

let test_byte_identical () =
  List.iter (fun (name, cfg) -> check_against_reference ~name cfg) schemes

let trace cfg wire =
  match Wire.peek_trace cfg wire with
  | Some (_, b, k) -> (b, k)
  | None -> Alcotest.fail "signature without a trace triple"

(* Three keys of batch 0 sign; the cutover drops the other five, exactly,
   and from then on only keys of the staged batch and later sign. *)
let test_cutover_mid_batch () =
  let cfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4) in
  let tel = Tel.create () in
  let sk, _ = Eddsa.generate (Rng.create 91L) in
  let signer =
    Signer.create cfg ~id:0 ~eddsa:sk ~rng:(Rng.create 5L)
      ~options:(Options.with_telemetry tel Options.default)
      ~verifiers:[ 1 ] ()
  in
  Signer.background_fill signer;
  let first = List.init 3 (fun i -> trace cfg (Signer.sign signer (Printf.sprintf "old %d" i))) in
  Alcotest.(check (list (pair int64 int))) "batch 0, keys 0-2" [ (0L, 0); (0L, 1); (0L, 2) ] first;
  Alcotest.(check int) "five keys left" 5 (Signer.queue_depth signer);
  let _, staged = Signer.stage_next_batch signer in
  Alcotest.(check int) "staged keys are not served before the cutover" 5 (Signer.queue_depth signer);
  ignore (Signer.cutover signer);
  Alcotest.(check int) "only the staged batch is queued" 8 (Signer.queue_depth signer);
  let dropped =
    match Registry.Snapshot.find (Tel.snapshot tel) "dsig_rotation_dropped_keys_total" with
    | Some (Registry.Snapshot.Counter n) -> n
    | _ -> -1
  in
  Alcotest.(check int) "the rest of batch 0 is discarded" 5 dropped;
  let after = List.init 12 (fun i -> trace cfg (Signer.sign signer (Printf.sprintf "new %d" i))) in
  List.iteri
    (fun i (b, k) ->
      if i < 8 then Alcotest.(check (pair int64 int)) "staged batch, in order" (staged, i) (b, k)
      else if Int64.compare b staged <= 0 then Alcotest.failf "key (%Ld, %d) after the staged batch" b k)
    after

(* [sign_into] burns the key only when it signs, and a used key raises
   through both entry points. *)
let test_reused_key_raises () =
  let p = Params.Wots.make ~d:4 () in
  let kp = Wots.generate p ~seed:(String.make 32 's') in
  let nonce = String.make 16 'n' in
  let short = Bytes.create 10 in
  Alcotest.check_raises "output too small" (Invalid_argument "Wots.sign_into: output out of range")
    (fun () -> Wots.sign_into kp ~nonce ~nonce_off:0 "m" short 0);
  let dst = Bytes.create (p.Params.Wots.l * p.Params.Wots.n) in
  Wots.sign_into kp ~nonce ~nonce_off:0 "m" dst 0;
  let reference = Wots.sign ~allow_reuse:true kp ~nonce "m" in
  Alcotest.(check string) "sign_into writes sign's elements" reference.Wots.elements
    (Bytes.to_string dst);
  Alcotest.check_raises "sign_into reuse" (Invalid_argument "Wots.sign: one-time key already used")
    (fun () -> Wots.sign_into kp ~nonce ~nonce_off:0 "m" dst 0);
  Alcotest.check_raises "sign reuse" (Invalid_argument "Wots.sign: one-time key already used")
    (fun () -> ignore (Wots.sign kp ~nonce "m"))

(* The nonce is read in place at any offset. *)
let test_nonce_offset () =
  let p = Params.Wots.make ~d:16 () in
  let seed = String.make 32 'k' in
  let nonce = "0123456789abcdef" in
  let a = Wots.generate p ~seed and b = Wots.generate p ~seed in
  let dst = Bytes.create (5 + (p.Params.Wots.l * p.Params.Wots.n)) in
  Wots.sign_into a ~nonce:("xyz" ^ nonce ^ "tail") ~nonce_off:3 "msg" dst 5;
  Alcotest.(check string) "elements at the offset" (Wots.sign b ~nonce "msg").Wots.elements
    (Bytes.sub_string dst 5 (p.Params.Wots.l * p.Params.Wots.n))

let suites =
  [
    ( "sign path",
      [
        Alcotest.test_case "byte-identical to Wire.encode" `Quick test_byte_identical;
        Alcotest.test_case "cutover mid-batch discards the rest" `Quick test_cutover_mid_batch;
        Alcotest.test_case "reused key raises" `Quick test_reused_key_raises;
        Alcotest.test_case "nonce read in place" `Quick test_nonce_offset;
      ] );
  ]
