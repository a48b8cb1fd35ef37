open Dsig_hbss
module Merkle = Dsig_merkle.Merkle
module BU = Dsig_util.Bytesutil

let magic = '\xD5'
let version = '\x01'
let header_bytes = 4 + 8 + 8
let nonce_bytes = 16
let eddsa_bytes = 64

type body =
  | Wots_body of Wots.signature
  | Hors_fact_body of { hsig : Hors.signature; complement : string array }
  | Hors_merk_body of {
      hsig : Hors.signature;
      roots : string array;
      proofs : (int * Merkle.proof) array;
    }

type t = {
  signer_id : int;
  batch_id : int64;
  public_seed : string;
  body : body;
  batch_proof : Merkle.proof;
  root_sig : string;
}

let key_index t = t.batch_proof.Merkle.index

(* Proof length (in siblings) of a merklified-HORS per-secret proof. *)
let hors_tree_levels (p : Params.Hors.t) ~trees = Params.log2_exact (p.Params.Hors.t / trees)

let size_bytes (cfg : Config.t) =
  let batch_proof = 4 + (32 * Config.batch_levels cfg) in
  let fixed = header_bytes + 32 (* public seed *) + batch_proof + eddsa_bytes in
  match cfg.Config.hbss with
  | Config.Wots p -> fixed + Wots.signature_wire_bytes p
  | Config.Hors_factorized p ->
      (* k revealed secrets + (t - k) complement elements, distinct case *)
      fixed + nonce_bytes + (p.Params.Hors.t * p.Params.Hors.n)
  | Config.Hors_merklified { params = p; trees } ->
      let per_proof = 2 + 4 + (32 * hors_tree_levels p ~trees) in
      fixed + nonce_bytes
      + (p.Params.Hors.k * p.Params.Hors.n)
      + (trees * 32)
      + (p.Params.Hors.k * per_proof)

(* The body after the nonce: the W-OTS+ elements, or the HORS secrets
   with what the verifier needs of the public key. *)
let body_after_nonce = function
  | Wots_body s -> s.Wots.elements
  | Hors_fact_body { hsig; complement } ->
      String.concat "" (Array.to_list hsig.Hors.revealed @ Array.to_list complement)
  | Hors_merk_body { hsig; roots; proofs } ->
      String.concat ""
        (Array.to_list hsig.Hors.revealed
        @ Array.to_list roots
        @ List.concat_map
            (fun (tree, pf) -> [ BU.u16_be tree; Merkle.encode_proof pf ])
            (Array.to_list proofs))

let encode (cfg : Config.t) t =
  let buf = Buffer.create (size_bytes cfg) in
  Buffer.add_char buf magic;
  Buffer.add_char buf version;
  Buffer.add_char buf (Char.chr (Config.scheme_tag cfg));
  Buffer.add_char buf (Char.chr (Config.hash_tag cfg));
  Buffer.add_string buf (BU.u64_le (Int64.of_int t.signer_id));
  Buffer.add_string buf (BU.u64_le t.batch_id);
  Buffer.add_string buf t.public_seed;
  Buffer.add_string buf
    (match t.body with
    | Wots_body s -> s.Wots.nonce
    | Hors_fact_body { hsig; _ } | Hors_merk_body { hsig; _ } -> hsig.Hors.nonce);
  Buffer.add_string buf (body_after_nonce t.body);
  Buffer.add_string buf (Merkle.encode_proof t.batch_proof);
  Buffer.add_string buf t.root_sig;
  Buffer.contents buf

(* --- the signer's assembly ---

   [encode] above is the codec and the reference; the signer builds the
   same bytes in two steps. At seal time it writes the bytes that do not
   depend on the message: once per batch, the header and root signature
   ([batch_bytes]); once per key, the public seed, nonce and batch proof
   ([key_bytes]). A sign ([sign]) then allocates the signature once
   with [frame] and writes the body into the gap after the nonce. *)

let prefix_bytes = header_bytes + 32 + nonce_bytes
let key_nonce_offset = 32
let key_proof_offset = key_nonce_offset + nonce_bytes

let batch_bytes (cfg : Config.t) ~signer_id ~batch_id ~root_sig =
  if String.length root_sig <> eddsa_bytes then
    invalid_arg "Wire.batch_bytes: root signature must be 64 bytes";
  let b = Bytes.create (header_bytes + eddsa_bytes) in
  Bytes.set b 0 magic;
  Bytes.set b 1 version;
  Bytes.set b 2 (Char.chr (Config.scheme_tag cfg));
  Bytes.set b 3 (Char.chr (Config.hash_tag cfg));
  Bytes.set_int64_le b 4 (Int64.of_int signer_id);
  Bytes.set_int64_le b 12 batch_id;
  Bytes.blit_string root_sig 0 b header_bytes eddsa_bytes;
  Bytes.unsafe_to_string b

let key_bytes (cfg : Config.t) ~public_seed ~nonce ~batch_proof =
  let levels = Config.batch_levels cfg in
  if String.length public_seed <> 32 || String.length nonce <> nonce_bytes then
    invalid_arg "Wire.key_bytes: public seed must be 32 bytes and nonce 16";
  if List.length batch_proof.Merkle.siblings <> levels then
    invalid_arg "Wire.key_bytes: batch proof of the wrong depth";
  let b = Bytes.create (key_proof_offset + 4 + (32 * levels)) in
  Bytes.blit_string public_seed 0 b 0 32;
  Bytes.blit_string nonce 0 b key_nonce_offset nonce_bytes;
  Bytes.set_int32_le b key_proof_offset (Int32.of_int batch_proof.Merkle.index);
  List.iteri
    (fun i sib -> Bytes.blit_string sib 0 b (key_proof_offset + 4 + (32 * i)) 32)
    batch_proof.Merkle.siblings;
  Bytes.unsafe_to_string b

let batch_id_of_bytes batch = String.get_int64_le batch 12
let key_index_of_bytes key = Int32.to_int (String.get_int32_le key key_proof_offset)

let frame ~batch ~key ~body_bytes =
  let proof = String.length key - key_proof_offset in
  let b = Bytes.create (String.length batch + String.length key + body_bytes) in
  Bytes.blit_string batch 0 b 0 header_bytes;
  Bytes.blit_string key 0 b header_bytes key_proof_offset;
  let after = prefix_bytes + body_bytes in
  Bytes.blit_string key key_proof_offset b after proof;
  Bytes.blit_string batch header_bytes b (after + proof) eddsa_bytes;
  b

let frame_body ~batch ~key body =
  let rest = body_after_nonce body in
  let b = frame ~batch ~key ~body_bytes:(String.length rest) in
  Bytes.blit_string rest 0 b prefix_bytes (String.length rest);
  Bytes.unsafe_to_string b

let sign ~batch ~key onetime msg =
  match onetime with
  | Onetime.Wots_key kp ->
      let p = Wots.params kp in
      let b = frame ~batch ~key ~body_bytes:(p.Params.Wots.l * p.Params.Wots.n) in
      Wots.sign_into kp ~nonce:key ~nonce_off:key_nonce_offset msg b prefix_bytes;
      Bytes.unsafe_to_string b
  | Onetime.Hors_key { kp; forest } ->
      let nonce = String.sub key key_nonce_offset nonce_bytes in
      let hsig = Hors.sign kp ~nonce msg in
      let body =
        match forest with
        | None -> Hors_fact_body { hsig; complement = Hors.complement kp hsig msg }
        | Some f ->
            let indices =
              Hors.message_indices (Hors.params kp) ~public_seed:(Hors.public_seed kp) ~nonce msg
            in
            let roots = Array.of_list (Merkle.Forest.roots f) in
            let proofs = Array.map (fun idx -> Merkle.Forest.proof f idx) indices in
            Hors_merk_body { hsig; roots; proofs }
      in
      frame_body ~batch ~key body

let peek_header s =
  if String.length s < header_bytes || s.[0] <> magic || s.[1] <> version then None
  else Some (Int64.to_int (BU.get_u64_le s 4), BU.get_u64_le s 12)

(* The batch proof sits at a fixed offset from the end (proof, then the
   64-byte EdDSA root signature) and starts with its u32 LE leaf index,
   so the (signer, batch, key) triple — a signature's trace identity —
   is readable without decoding the body. *)
let peek_trace (cfg : Config.t) s =
  match peek_header s with
  | None -> None
  | Some (signer_id, batch_id) ->
      let proof_bytes = 4 + (32 * Config.batch_levels cfg) in
      let off = String.length s - eddsa_bytes - proof_bytes in
      if off < header_bytes + 32 then None
      else begin
        let idx = Int32.to_int (BU.get_u32_le s off) in
        if idx < 0 then None else Some (signer_id, batch_id, idx)
      end

let decode (cfg : Config.t) s =
  let ( let* ) r f = Result.bind r f in
  let err msg = Error msg in
  let len = String.length s in
  let* () = if len < header_bytes + 32 then err "truncated header" else Ok () in
  let* () = if s.[0] <> magic || s.[1] <> version then err "bad magic/version" else Ok () in
  let* () =
    if Char.code s.[2] <> Config.scheme_tag cfg then err "scheme mismatch"
    else if Char.code s.[3] <> Config.hash_tag cfg then err "hash mismatch"
    else Ok ()
  in
  let signer_id = Int64.to_int (BU.get_u64_le s 4) in
  let batch_id = BU.get_u64_le s 12 in
  let public_seed = String.sub s 20 32 in
  let pos = ref (20 + 32) in
  let take n =
    if !pos + n > len then None
    else begin
      let r = String.sub s !pos n in
      pos := !pos + n;
      Some r
    end
  in
  let take_err n = match take n with Some r -> Ok r | None -> err "truncated" in
  let batch_proof_bytes = 4 + (32 * Config.batch_levels cfg) in
  let trailer = batch_proof_bytes + eddsa_bytes in
  let* body =
    match cfg.Config.hbss with
    | Config.Wots p ->
        let* nonce = take_err nonce_bytes in
        let* elements = take_err (Params.Wots.signature_bytes p) in
        Ok (Wots_body { Wots.nonce; elements })
    | Config.Hors_factorized p ->
        let* nonce = take_err nonce_bytes in
        let n = p.Params.Hors.n in
        let* blob = take_err (p.Params.Hors.k * n) in
        let revealed = Array.init p.Params.Hors.k (fun i -> String.sub blob (i * n) n) in
        let comp_bytes = len - !pos - trailer in
        let* () =
          if comp_bytes < 0 || comp_bytes mod n <> 0 then err "bad complement size" else Ok ()
        in
        let* cblob = take_err comp_bytes in
        let complement = Array.init (comp_bytes / n) (fun i -> String.sub cblob (i * n) n) in
        Ok (Hors_fact_body { hsig = { Hors.nonce; revealed }; complement })
    | Config.Hors_merklified { params = p; trees } ->
        let* nonce = take_err nonce_bytes in
        let n = p.Params.Hors.n in
        let* blob = take_err (p.Params.Hors.k * n) in
        let revealed = Array.init p.Params.Hors.k (fun i -> String.sub blob (i * n) n) in
        let* rblob = take_err (trees * 32) in
        let roots = Array.init trees (fun i -> String.sub rblob (i * 32) 32) in
        let levels = hors_tree_levels p ~trees in
        let per_proof = 4 + (32 * levels) in
        let rec read_proofs acc i =
          if i = p.Params.Hors.k then Ok (Array.of_list (List.rev acc))
          else begin
            let* tb = take_err 2 in
            let tree = BU.get_u16_be tb 0 in
            let* pb = take_err per_proof in
            match Merkle.decode_proof ~levels pb with
            | None -> err "bad hors proof"
            | Some pf -> read_proofs ((tree, pf) :: acc) (i + 1)
          end
        in
        let* proofs = read_proofs [] 0 in
        Ok (Hors_merk_body { hsig = { Hors.nonce; revealed }; roots; proofs })
  in
  let* () = if !pos + trailer > len then err "truncated" else Ok () in
  let* () = if !pos + trailer < len then err "trailing bytes" else Ok () in
  let* batch_proof =
    match Merkle.read_proof ~levels:(Config.batch_levels cfg) s !pos with
    | None -> err "bad batch proof"
    | Some pf ->
        if pf.Merkle.index >= cfg.Config.batch_size then err "batch index out of range" else Ok pf
  in
  let root_sig = String.sub s (len - eddsa_bytes) eddsa_bytes in
  Ok { signer_id; batch_id; public_seed; body; batch_proof; root_sig }
