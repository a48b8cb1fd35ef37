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
  | Hors_merk_mp_body of {
      hsig : Hors.signature;
      roots : string array;
      mps : (int * Merkle.Multiproof.t) list; (* (tree, shared proof) *)
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

let encode (cfg : Config.t) t =
  let buf = Buffer.create (size_bytes cfg) in
  Buffer.add_char buf magic;
  Buffer.add_char buf version;
  Buffer.add_char buf (Char.chr (Config.scheme_tag cfg));
  Buffer.add_char buf (Char.chr (Config.hash_tag cfg));
  Buffer.add_string buf (BU.u64_le (Int64.of_int t.signer_id));
  Buffer.add_string buf (BU.u64_le t.batch_id);
  Buffer.add_string buf t.public_seed;
  (match t.body with
  | Wots_body s ->
      Buffer.add_string buf s.Wots.nonce;
      Buffer.add_string buf s.Wots.elements
  | Hors_fact_body { hsig; complement } ->
      Buffer.add_string buf hsig.Hors.nonce;
      Array.iter (Buffer.add_string buf) hsig.Hors.revealed;
      Array.iter (Buffer.add_string buf) complement
  | Hors_merk_body { hsig; roots; proofs } ->
      Buffer.add_string buf hsig.Hors.nonce;
      Array.iter (Buffer.add_string buf) hsig.Hors.revealed;
      Array.iter (Buffer.add_string buf) roots;
      Array.iter
        (fun (tree, pf) ->
          Buffer.add_string buf (BU.u16_be tree);
          Buffer.add_string buf (Merkle.encode_proof pf))
        proofs
  | Hors_merk_mp_body { hsig; roots; mps } ->
      Buffer.add_string buf hsig.Hors.nonce;
      Array.iter (Buffer.add_string buf) hsig.Hors.revealed;
      Array.iter (Buffer.add_string buf) roots;
      Buffer.add_char buf (Char.chr (List.length mps));
      List.iter
        (fun (tree, mp) ->
          Buffer.add_string buf (BU.u16_be tree);
          Buffer.add_string buf (Merkle.Multiproof.encode mp))
        mps);
  Buffer.add_string buf (Merkle.encode_proof t.batch_proof);
  Buffer.add_string buf t.root_sig;
  Buffer.contents buf

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
    | Config.Hors_merklified { params = p; trees } when cfg.Config.compress_proofs ->
        let* nonce = take_err nonce_bytes in
        let n = p.Params.Hors.n in
        let* blob = take_err (p.Params.Hors.k * n) in
        let revealed = Array.init p.Params.Hors.k (fun i -> String.sub blob (i * n) n) in
        let* rblob = take_err (trees * 32) in
        let roots = Array.init trees (fun i -> String.sub rblob (i * 32) 32) in
        let* cb = take_err 1 in
        let count = Char.code cb.[0] in
        (* the multiproof region is whatever sits between the cursor and
           the fixed-size trailer; on a truncated frame that span is
           negative and must be rejected, not passed to String.sub *)
        let body_len = len - !pos - trailer in
        let* body_blob = if body_len < 0 then err "truncated" else take_err body_len in
        let rec read_mps blob acc i =
          if i = count then if blob = "" then Ok (List.rev acc) else err "trailing proof bytes"
          else if String.length blob < 2 then err "truncated multiproof"
          else begin
            let tree = BU.get_u16_be blob 0 in
            match Merkle.Multiproof.decode (String.sub blob 2 (String.length blob - 2)) with
            | None -> err "bad multiproof"
            | Some (mp, rest) -> read_mps rest ((tree, mp) :: acc) (i + 1)
          end
        in
        let* mps = read_mps body_blob [] 0 in
        Ok (Hors_merk_mp_body { hsig = { Hors.nonce; revealed }; roots; mps })
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
