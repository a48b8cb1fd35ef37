(* Totality fuzzing of the wire decoders (ISSUE 2): [Wire.decode],
   [Batch.decode_announcement], [Batch.decode_control] and
   [Tcpnet.decode_message] must return [Error] — never raise — on
   arbitrary, truncated, or bit-flipped input, and must roundtrip a
   valid encoding for every signature scheme. 10k arbitrary cases plus
   10k mutations of valid frames. *)

open Dsig
module Rng = Dsig_util.Rng
module Tcpnet = Dsig_tcpnet.Tcpnet

let scheme_configs =
  [
    ("wots", Config.make ~batch_size:4 ~queue_threshold:4 (Config.wots ~d:4));
    ("hors-fact", Config.make ~batch_size:4 ~queue_threshold:4 (Config.hors_factorized ~k:32));
    ( "hors-merk",
      Config.make ~batch_size:4 ~queue_threshold:4 (Config.hors_merklified ~k:32 ()) );
  ]

(* one valid signature encoding per scheme, generated once *)
let valid_signatures =
  List.map
    (fun (name, cfg) ->
      let sys = System.create cfg ~n:2 () in
      let msg = "fuzz-" ^ name in
      (name, cfg, System.sign sys ~signer:0 ~hint:[ 1 ] msg))
    scheme_configs

let valid_announcement_frames =
  let cfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4) in
  let rng = Rng.create 3L in
  let sk, _ = Dsig_ed25519.Eddsa.generate rng in
  let batch = Batch.make cfg ~signer_id:5 ~batch_id:42L ~eddsa:sk ~rng in
  let ann = Batch.announcement cfg batch in
  [
    Tcpnet.encode_message (Tcpnet.Announcement ann);
    Tcpnet.encode_message (Tcpnet.Signed { msg = "m"; signature = String.make 64 's' });
    Tcpnet.encode_message
      (Tcpnet.Control (Batch.Ack { Batch.ack_verifier = 1; ack_signer = 5; ack_batch = 42L }));
    Tcpnet.encode_message
      (Tcpnet.Control
         (Batch.Request { Batch.req_verifier = 1; req_signer = 5; req_batch = 42L }));
    Tcpnet.encode_message
      (Tcpnet.Control
         (Batch.Credit
            { pressure = 200; ack = { Batch.ack_verifier = 1; ack_signer = 5; ack_batch = 42L } }));
    Tcpnet.encode_message
      (Tcpnet.Traced
         ( Dsig_telemetry.Trace_ctx.make ~signer:5 ~batch_id:42L ~key_index:2 ~origin:5
             ~birth_us:10.0,
           Tcpnet.Signed { msg = "m"; signature = String.make 64 's' } ));
    (* checkpoint payloads are opaque at this layer — any nonempty body *)
    Tcpnet.encode_message (Tcpnet.Checkpoint (String.make 56 'c'));
  ]

let decode_all_total s =
  List.for_all
    (fun (_, cfg, _) -> match Wire.decode cfg s with Ok _ | Error _ -> true)
    valid_signatures
  && (match Batch.decode_announcement s with Ok _ | Error _ -> true)
  && (match Batch.decode_control s with Ok _ | Error _ -> true)
  && match Tcpnet.decode_message s with Ok _ | Error _ -> true

let flip_bit s i =
  let b = Bytes.of_string s in
  let byte = i / 8 mod Bytes.length b in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (i mod 8))));
  Bytes.unsafe_to_string b

(* 10k arbitrary strings through every decoder *)
let arbitrary_total =
  QCheck.Test.make ~name:"decoders total on arbitrary input" ~count:10_000
    QCheck.(string_of_size Gen.(0 -- 600))
    decode_all_total

(* 10k mutations — truncations and single-bit flips — of valid frames *)
let mutated_total =
  let frames =
    List.map (fun (_, cfg, s) -> (Some cfg, s)) valid_signatures
    @ List.map (fun s -> (None, s)) valid_announcement_frames
  in
  let nframes = List.length frames in
  QCheck.Test.make ~name:"decoders total on truncated/bit-flipped frames" ~count:10_000
    QCheck.(triple (int_bound (nframes - 1)) bool (int_bound 1_000_000))
    (fun (fi, truncate, pos) ->
      let cfg_opt, frame = List.nth frames fi in
      let mutated =
        if truncate then String.sub frame 0 (pos mod (String.length frame + 1))
        else flip_bit frame pos
      in
      decode_all_total mutated
      &&
      match cfg_opt with
      | Some cfg -> ( match Wire.decode cfg mutated with Ok _ | Error _ -> true)
      | None -> ( match Tcpnet.decode_message mutated with Ok _ | Error _ -> true))

(* every scheme's encoding decodes back to an identical re-encoding *)
let test_roundtrip () =
  List.iter
    (fun (name, cfg, s) ->
      match Wire.decode cfg s with
      | Error e -> Alcotest.fail (name ^ ": valid signature rejected: " ^ e)
      | Ok w ->
          Alcotest.(check string) (name ^ " re-encode identical") s (Wire.encode cfg w);
          (* a strict prefix must be rejected, not mis-parsed *)
          (match Wire.decode cfg (String.sub s 0 (String.length s - 1)) with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail (name ^ ": truncated signature accepted")))
    valid_signatures;
  List.iter
    (fun frame ->
      match Tcpnet.decode_message frame with
      | Error e -> Alcotest.fail ("valid frame rejected: " ^ e)
      | Ok m ->
          Alcotest.(check string) "frame re-encode identical" frame (Tcpnet.encode_message m))
    valid_announcement_frames;
  match Tcpnet.decode_message "C" with
  | Ok _ -> Alcotest.fail "empty checkpoint frame accepted"
  | Error _ -> ()

let test_control_codec () =
  let a = Batch.Ack { Batch.ack_verifier = 7; ack_signer = 3; ack_batch = 99L } in
  let r = Batch.Request { Batch.req_verifier = 2; req_signer = 8; req_batch = 1234567L } in
  List.iter
    (fun c ->
      let e = Batch.encode_control c in
      Alcotest.(check int) "control wire size" Batch.control_wire_bytes (String.length e);
      match Batch.decode_control e with
      | Ok c' -> Alcotest.(check bool) "control roundtrip" true (c = c')
      | Error e -> Alcotest.fail e)
    [ a; r ];
  (* wrong size or tag rejected *)
  List.iter
    (fun s ->
      match Batch.decode_control s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed control accepted")
    [ ""; "K"; "X" ^ String.make 24 '\x00'; Batch.encode_control a ^ "x" ]

(* The retired count-prefixed multi-ACK frame ('M': tag, u16 count,
   24 bytes per ack) is rejected as an unknown tag, by the control
   decoder and by the transport, whatever its count. *)
let test_multi_ack_rejected () =
  List.iter
    (fun n ->
      let body = String.concat "" (List.init n (fun i -> String.make 24 (Char.chr (65 + i)))) in
      let frame = Printf.sprintf "M%c%c%s" (Char.chr n) '\x00' body in
      (match Batch.decode_control frame with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "'M' frame of %d acks accepted" n));
      match Tcpnet.decode_message frame with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "transport accepted an 'M' frame of %d acks" n))
    [ 0; 1; 3 ]

(* Bounds audit of [Bytes.unsafe_*] call sites (ISSUE 7 satellite).
   Every site in the tree is a [Bytes.unsafe_to_string] on a buffer the
   function itself allocated and fully wrote — ownership transfer, safe
   by construction. The only ones that read a {e prefix} of a fixed
   64-byte block with an explicit caller-supplied length are the
   incremental hash cores (blake3.ml's [words_of_block ... c.block_len],
   sha256.ml's padding feed), where an off-by-one at a block boundary
   would silently mis-hash short or truncated inputs. Pin the boundary
   behavior: incremental hashing must agree with the one-shot digest at
   every block-edge length and under arbitrary chunk splits. *)

let boundary_lengths = [ 0; 1; 31; 32; 55; 56; 63; 64; 65; 127; 128; 129; 1023; 1024; 1025 ]

let boundary_input n = String.init n (fun i -> Char.chr ((i * 131 + n) land 0xff))

let incr_blake3 chunks =
  let c = Dsig_hashes.Blake3.Incremental.create () in
  List.iter (Dsig_hashes.Blake3.Incremental.feed c) chunks;
  Dsig_hashes.Blake3.Incremental.finalize c

let incr_sha256 chunks =
  let c = Dsig_hashes.Sha256.init () in
  List.iter (Dsig_hashes.Sha256.feed c) chunks;
  Dsig_hashes.Sha256.finalize c

let hex = Dsig_util.Bytesutil.to_hex

let test_hash_boundaries () =
  List.iter
    (fun n ->
      let s = boundary_input n in
      let whole = [ s ] in
      let bytewise = List.init n (fun i -> String.make 1 s.[i]) in
      let halves = [ String.sub s 0 (n / 2); String.sub s (n / 2) (n - (n / 2)) ] in
      List.iter
        (fun chunks ->
          Alcotest.(check string)
            (Printf.sprintf "blake3 incremental agrees at %d" n)
            (hex (Dsig_hashes.Blake3.digest s))
            (hex (incr_blake3 chunks));
          Alcotest.(check string)
            (Printf.sprintf "sha256 incremental agrees at %d" n)
            (hex (Dsig_hashes.Sha256.digest s))
            (hex (incr_sha256 chunks)))
        [ whole; bytewise; halves ])
    boundary_lengths

let hash_chunking_fuzz =
  QCheck.Test.make ~name:"incremental hashing agrees under random chunking" ~count:500
    QCheck.(pair (int_bound 2048) (small_list (int_bound 2048)))
    (fun (n, cuts) ->
      let s = boundary_input n in
      let cuts = List.sort_uniq compare (0 :: n :: List.filter (fun c -> c <= n) cuts) in
      let rec pieces = function
        | a :: (b :: _ as rest) -> String.sub s a (b - a) :: pieces rest
        | _ -> []
      in
      let chunks = pieces cuts in
      incr_blake3 chunks = Dsig_hashes.Blake3.digest s
      && incr_sha256 chunks = Dsig_hashes.Sha256.digest s)

(* The pressure-bearing credit frame ('P'): an ACK plus the verifier's
   back-pressure byte, fixed-size. Roundtrips at every pressure;
   truncations, trailing bytes and tag confusion are rejected; and the
   plain 'K' ACK is untouched by it. *)
let test_credit_codec () =
  let ack = { Batch.ack_verifier = 4; ack_signer = 6; ack_batch = 100L } in
  List.iter
    (fun p ->
      let c = Batch.Credit { pressure = p; ack } in
      let e = Batch.encode_control c in
      Alcotest.(check int) "declared size" (Batch.control_bytes c) (String.length e);
      Alcotest.(check int) "fixed size" (Batch.control_wire_bytes + 1) (String.length e);
      match Batch.decode_control e with
      | Ok c' -> Alcotest.(check bool) (Printf.sprintf "credit(p=%d) roundtrip" p) true (c = c')
      | Error e -> Alcotest.fail e)
    [ 0; 1; 128; 255 ];
  Alcotest.(check int) "credit targets the signer" 6
    (Batch.control_target (Batch.Credit { pressure = 9; ack }));
  (match Batch.decode_control (Batch.encode_control (Batch.Ack ack)) with
  | Ok (Batch.Ack a) -> Alcotest.(check bool) "'K' frame still an Ack" true (a = ack)
  | _ -> Alcotest.fail "'K' frame no longer decodes as Ack");
  let good = Batch.encode_control (Batch.Credit { pressure = 7; ack }) in
  let as_ack = Bytes.of_string good in
  Bytes.set as_ack 0 'K';
  List.iter
    (fun s ->
      match Batch.decode_control s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed credit accepted")
    [
      String.sub good 0 (String.length good - 1);
      good ^ "x";
      Bytes.to_string as_ack;
      "P";
      "P\x00";
    ]

let credit_fuzz =
  QCheck.Test.make ~name:"credit frames roundtrip at any pressure and ack" ~count:200
    QCheck.(quad (int_bound 255) small_nat small_nat int64)
    (fun (p, v, s, b) ->
      let c =
        Batch.Credit { pressure = p; ack = { Batch.ack_verifier = v; ack_signer = s; ack_batch = b } }
      in
      match Batch.decode_control (Batch.encode_control c) with
      | Ok c' -> c = c'
      | Error _ -> false)

let () =
  Alcotest.run "dsig-wire-fuzz"
    [
      ( "wire-fuzz",
        [
          Alcotest.test_case "valid roundtrips" `Quick test_roundtrip;
          Alcotest.test_case "control codec" `Quick test_control_codec;
          Alcotest.test_case "'M' multi-ack frame rejected" `Quick test_multi_ack_rejected;
          Alcotest.test_case "credit codec" `Quick test_credit_codec;
          Alcotest.test_case "hash block boundaries" `Quick test_hash_boundaries;
        ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~long:false)
            [ arbitrary_total; mutated_total; credit_fuzz; hash_chunking_fuzz ]
      );
    ]
