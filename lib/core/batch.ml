module Merkle = Dsig_merkle.Merkle
module Eddsa = Dsig_ed25519.Eddsa
module BU = Dsig_util.Bytesutil
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric

type t = {
  signer_id : int;
  batch_id : int64;
  keys : Onetime.t array;
  tree : Merkle.t;
  root_sig : string;
}

let root_message ~signer_id ~batch_id ~root =
  "dsig-batch-root" ^ BU.u64_le (Int64.of_int signer_id) ^ BU.u64_le batch_id ^ root

type timers = { tel : Tel.t; h_keygen : Metric.Histogram.t; h_eddsa_sign : Metric.Histogram.t }

let timers tel =
  {
    tel;
    h_keygen = Tel.histogram tel "dsig_batch_keygen_us";
    h_eddsa_sign = Tel.histogram tel "dsig_batch_eddsa_sign_us";
  }

let make ?timers (cfg : Config.t) ~signer_id ~batch_id ~eddsa ~rng =
  let now () = match timers with Some tm -> Tel.now tm.tel | None -> 0.0 in
  let t0 = now () in
  let keys =
    Array.init cfg.Config.batch_size (fun _ ->
        Onetime.generate cfg ~seed:(Dsig_util.Rng.bytes rng 32))
  in
  let tree = Merkle.build (Array.map Onetime.batch_leaf keys) in
  let root = Merkle.root tree in
  let t1 = now () in
  let root_sig = Eddsa.sign eddsa (root_message ~signer_id ~batch_id ~root) in
  Option.iter
    (fun tm ->
      Metric.Histogram.add tm.h_keygen (t1 -. t0);
      Metric.Histogram.add tm.h_eddsa_sign (now () -. t1))
    timers;
  { signer_id; batch_id; keys; tree; root_sig }

let batch_id t = t.batch_id
let root t = Merkle.root t.tree
let root_signature t = t.root_sig
let size t = Array.length t.keys
let key t i = t.keys.(i)
let proof t i = Merkle.proof t.tree i
let leaves t = Array.map Onetime.batch_leaf t.keys

type announcement = {
  signer_id : int;
  ann_batch_id : int64;
  root_sig : string;
  ann_leaves : string array;
  full_keys : (string * string array) array option;
}

(* Only merklified HORS needs full keys ahead of time (§5.2): the
   verifier keeps them to check forest roots. Every other scheme sends
   the 32-byte leaf digests alone (§4.4). *)
let announcement (cfg : Config.t) t =
  let full_keys =
    match cfg.Config.hbss with
    | Config.Hors_merklified _ ->
        Some (Array.map (fun k -> (Onetime.public_seed k, Onetime.public_elements k)) t.keys)
    | Config.Wots _ | Config.Hors_factorized _ -> None
  in
  {
    signer_id = t.signer_id;
    ann_batch_id = t.batch_id;
    root_sig = t.root_sig;
    ann_leaves = leaves t;
    full_keys;
  }

(* Modeled wire size: 8 (signer) + 8 (batch id) + 64 (EdDSA) plus, per
   key, a 32-byte digest plus, for merklified HORS, the full public key
   with its seed. With the recommended configuration this is
   (128*32 + 80) / 128 = 32.6 B per signature plus the recipient count —
   the ~33 B/sig "Bg Net" column of Table 1. *)
let announcement_wire_bytes (cfg : Config.t) =
  let per_key =
    match cfg.Config.hbss with
    | Config.Hors_merklified { params = p; _ } ->
        32 + 32 + (p.Dsig_hbss.Params.Hors.t * p.Dsig_hbss.Params.Hors.n)
    | Config.Wots _ | Config.Hors_factorized _ -> 32
  in
  8 + 8 + 64 + (cfg.Config.batch_size * per_key)

(* Announcement wire format:
   magic 'A' | signer u64 | batch u64 | root_sig (64) | nleaves u32 |
   leaves (32 each) | has_full (1) | per key: seed (32) | nelems u32 |
   elem_len u32 | elements. *)
let encode_announcement a =
  let buf = Buffer.create 4096 in
  Buffer.add_char buf 'A';
  Buffer.add_string buf (BU.u64_le (Int64.of_int a.signer_id));
  Buffer.add_string buf (BU.u64_le a.ann_batch_id);
  Buffer.add_string buf a.root_sig;
  Buffer.add_string buf (BU.u32_le (Int32.of_int (Array.length a.ann_leaves)));
  Array.iter (Buffer.add_string buf) a.ann_leaves;
  (match a.full_keys with
  | None -> Buffer.add_char buf '\x00'
  | Some keys ->
      Buffer.add_char buf '\x01';
      Array.iter
        (fun (seed, elements) ->
          Buffer.add_string buf seed;
          Buffer.add_string buf (BU.u32_le (Int32.of_int (Array.length elements)));
          let elem_len = if Array.length elements = 0 then 0 else String.length elements.(0) in
          Buffer.add_string buf (BU.u32_le (Int32.of_int elem_len));
          Array.iter (Buffer.add_string buf) elements)
        keys);
  Buffer.contents buf

(* --- announcement-plane control messages (ACK / pull repair) --- *)

type ack = { ack_verifier : int; ack_signer : int; ack_batch : int64 }
type request = { req_verifier : int; req_signer : int; req_batch : int64 }
type control = Ack of ack | Request of request | Credit of { pressure : int; ack : ack }

let control_wire_bytes = 1 + 8 + 8 + 8

let control_bytes = function
  | Ack _ | Request _ -> control_wire_bytes
  | Credit _ -> control_wire_bytes + 1

let control_target = function
  | Ack a | Credit { ack = a; _ } -> a.ack_signer
  | Request r -> r.req_signer

let encode_ack_fields buf a b d =
  Buffer.add_string buf (BU.u64_le (Int64.of_int a));
  Buffer.add_string buf (BU.u64_le (Int64.of_int b));
  Buffer.add_string buf (BU.u64_le d)

(* Control wire format: tag | [pressure (1), 'P' only] | verifier u64 |
   signer u64 | batch u64. 'K' is an ACK, 'R' a pull request, and 'P'
   an ACK carrying the verifier's back-pressure byte. *)
let encode_control c =
  let buf = Buffer.create (control_bytes c) in
  (match c with
  | Ack { ack_verifier; ack_signer; ack_batch } ->
      Buffer.add_char buf 'K';
      encode_ack_fields buf ack_verifier ack_signer ack_batch
  | Request { req_verifier; req_signer; req_batch } ->
      Buffer.add_char buf 'R';
      encode_ack_fields buf req_verifier req_signer req_batch
  | Credit { pressure; ack = { ack_verifier; ack_signer; ack_batch } } ->
      Buffer.add_char buf 'P';
      Buffer.add_char buf (Char.chr (max 0 (min 255 pressure)));
      encode_ack_fields buf ack_verifier ack_signer ack_batch);
  Buffer.contents buf

let decode_control s =
  let len = String.length s in
  let int_at off = Int64.to_int (BU.get_u64_le s off) in
  let ack off =
    {
      ack_verifier = int_at off;
      ack_signer = int_at (off + 8);
      ack_batch = BU.get_u64_le s (off + 16);
    }
  in
  if len < 1 then Error "empty control frame"
  else
    match s.[0] with
    | 'K' when len = control_wire_bytes -> Ok (Ack (ack 1))
    | 'R' when len = control_wire_bytes ->
        Ok
          (Request
             { req_verifier = int_at 1; req_signer = int_at 9; req_batch = BU.get_u64_le s 17 })
    | 'P' when len = control_wire_bytes + 1 ->
        Ok (Credit { pressure = Char.code s.[1]; ack = ack 2 })
    | 'K' | 'R' | 'P' -> Error "bad control size"
    | _ -> Error "bad control tag"

let decode_announcement s =
  let len = String.length s in
  let pos = ref 0 in
  let take n =
    if !pos + n > len then failwith "truncated"
    else begin
      let r = String.sub s !pos n in
      pos := !pos + n;
      r
    end
  in
  try
    if take 1 <> "A" then Error "bad announcement magic"
    else begin
      let signer_id = Int64.to_int (BU.get_u64_le (take 8) 0) in
      let ann_batch_id = BU.get_u64_le (take 8) 0 in
      let root_sig = take 64 in
      let nleaves = Int32.to_int (BU.get_u32_le (take 4) 0) in
      if nleaves < 0 || nleaves > 1 lsl 20 then Error "bad leaf count"
      else begin
        let ann_leaves = Array.init nleaves (fun _ -> take 32) in
        let full_keys =
          match (take 1).[0] with
          | '\x00' -> None
          | '\x01' ->
              Some
                (Array.init nleaves (fun _ ->
                     let seed = take 32 in
                     let nelems = Int32.to_int (BU.get_u32_le (take 4) 0) in
                     let elem_len = Int32.to_int (BU.get_u32_le (take 4) 0) in
                     if nelems < 0 || nelems > 1 lsl 22 || elem_len < 0 || elem_len > 4096 then
                       failwith "bad element header"
                       (* bound the element array by the remaining input
                          before allocating nelems slots *)
                     else if !pos + (nelems * elem_len) > len then failwith "truncated"
                     else (seed, Array.init nelems (fun _ -> take elem_len))))
          | _ -> failwith "bad full-keys flag"
        in
        if !pos <> len then Error "trailing bytes"
        else Ok { signer_id; ann_batch_id; root_sig; ann_leaves; full_keys }
      end
    end
  with Failure e -> Error e
