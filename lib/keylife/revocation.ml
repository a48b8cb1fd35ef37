module BU = Dsig_util.Bytesutil
module Eddsa = Dsig_ed25519.Eddsa
module Pki = Dsig.Pki

type boundary = Total | From of int64

type t = {
  rev_signer : int;
  rev_epoch : int;
  rev_boundary : boundary;
  rev_issued_us : int64;
  rev_authority : int;
}

let magic = "DSIGREV1"
let body_size = String.length magic + 4 + 4 + 1 + 8 + 8 + 4
let size = body_size + Eddsa.signature_size

let body r =
  let kind, batch =
    match r.rev_boundary with Total -> ('\000', 0L) | From b -> ('\001', b)
  in
  String.concat ""
    [
      magic;
      BU.u32_le (Int32.of_int r.rev_signer);
      BU.u32_le (Int32.of_int r.rev_epoch);
      String.make 1 kind;
      BU.u64_le batch;
      BU.u64_le r.rev_issued_us;
      BU.u32_le (Int32.of_int r.rev_authority);
    ]

let issue ~authority_sk r =
  (match r.rev_boundary with
  | From b when Int64.compare b 0L < 0 ->
      invalid_arg "Revocation.issue: negative batch boundary"
  | _ -> ());
  if r.rev_signer < 0 || r.rev_epoch < 0 || r.rev_authority < 0 then
    invalid_arg "Revocation.issue: negative id";
  let b = body r in
  b ^ Eddsa.sign authority_sk b

let decode s =
  if String.length s <> size then
    Error (Printf.sprintf "revocation: expected %d bytes, got %d" size (String.length s))
  else if not (String.equal (String.sub s 0 8) magic) then Error "revocation: bad magic"
  else
    let rev_signer = Int32.to_int (BU.get_u32_le s 8) in
    let rev_epoch = Int32.to_int (BU.get_u32_le s 12) in
    let kind = s.[16] in
    let batch = BU.get_u64_le s 17 in
    let rev_issued_us = BU.get_u64_le s 25 in
    let rev_authority = Int32.to_int (BU.get_u32_le s 33) in
    if rev_signer < 0 || rev_epoch < 0 || rev_authority < 0 then
      Error "revocation: id out of range"
    else
      match kind with
      | '\000' when Int64.equal batch 0L ->
          Ok { rev_signer; rev_epoch; rev_boundary = Total; rev_issued_us; rev_authority }
      | '\000' -> Error "revocation: total revocation with nonzero batch"
      | '\001' when Int64.compare batch 0L >= 0 ->
          Ok { rev_signer; rev_epoch; rev_boundary = From batch; rev_issued_us; rev_authority }
      | '\001' -> Error "revocation: negative batch boundary"
      | _ -> Error "revocation: bad boundary kind"

let verify ~authority s =
  match decode s with
  | Error _ as e -> e
  | Ok r ->
      if
        Eddsa.verify_with authority (String.sub s 0 body_size)
          (String.sub s body_size Eddsa.signature_size)
      then Ok r
      else Error "revocation: authority signature check failed"

type outcome = Applied of t | Replayed of t | Rejected of string

let enforce ~pki ~authority ?purge encoded =
  match verify ~authority encoded with
  | Error e -> Rejected e
  | Ok r ->
      (* a replay is any record that cannot tighten what the directory
         already enforces — applying it again must be a visible no-op so
         the gossip layer can re-send records freely *)
      let already =
        match (Pki.revocation pki r.rev_signer, r.rev_boundary) with
        | `Total, _ -> true
        | `From b, From b' -> Int64.compare b b' <= 0
        | `From _, Total | `None, _ -> false
      in
      if already then Replayed r
      else begin
        (match r.rev_boundary with
        | Total -> Pki.revoke pki r.rev_signer
        | From b -> Pki.revoke_from pki ~id:r.rev_signer ~batch:b);
        (match purge with
        | None -> ()
        | Some f ->
            f ~signer:r.rev_signer
              ~from_batch:(match r.rev_boundary with Total -> None | From b -> Some b));
        Applied r
      end
