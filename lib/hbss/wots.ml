open Dsig_hashes
module P = Params.Wots

type keypair = {
  p : P.t;
  hash : Hash.algo;
  public_seed : string;
  secrets : string array;
  publics : string array;
  chains : string array array option; (* chains.(i).(j) = chain i at depth j *)
  pk_digest : string;
  mutable used : bool;
}

let nonce_bytes = 16

(* Masks r_j (j in 1..d-1) for the chaining function, derived from the
   public seed so that verification is stateless. Every call that walks
   chains derives all d-1 once, up front: a keyed BLAKE3 costs more than
   the Haraka step it masks. masks.(0) is unused. They are not kept in
   the keypair, which would grow every queued key. *)
let masks ~n ~d public_seed =
  Array.init d (fun j ->
      if j = 0 then ""
      else
        Blake3.keyed ~key:public_seed ~length:n
          ("wots-mask" ^ Dsig_util.Bytesutil.u32_le (Int32.of_int j)))

(* c_j = H(c_{j-1} xor r_j) *)
let chain_step ~hash ~n ~masks ~depth x =
  Hash.digest hash ~length:n (Dsig_util.Bytesutil.xor x masks.(depth))

(* Advance [x] from depth [from] to depth [upto]. *)
let chain ~hash ~n ~masks ~from ~upto x =
  let v = ref x in
  for j = from + 1 to upto do
    v := chain_step ~hash ~n ~masks ~depth:j !v
  done;
  !v

let compute_pk_digest public_seed publics =
  Blake3.digest (String.concat "" (public_seed :: Array.to_list publics))

let generate ?(hash = Hash.Haraka) ?(cache_chains = true) (p : P.t) ~seed =
  if String.length seed <> 32 then invalid_arg "Wots.generate: need a 32-byte seed";
  let public_seed = Blake3.derive_key ~context:"dsig wots public seed" seed in
  (* All l secrets in one XOF call (§4.4). *)
  let blob = Blake3.derive_key ~context:"dsig wots secrets" ~length:(p.P.l * p.P.n) seed in
  let secrets = Array.init p.P.l (fun i -> String.sub blob (i * p.P.n) p.P.n) in
  let masks = masks ~n:p.P.n ~d:p.P.d public_seed in
  let chains =
    Array.init p.P.l (fun i ->
        let c = Array.make p.P.d secrets.(i) in
        for j = 1 to p.P.d - 1 do
          c.(j) <- chain_step ~hash ~n:p.P.n ~masks ~depth:j c.(j - 1)
        done;
        c)
  in
  let publics = Array.map (fun c -> c.(p.P.d - 1)) chains in
  {
    p;
    hash;
    public_seed;
    secrets;
    publics;
    chains = (if cache_chains then Some chains else None);
    pk_digest = compute_pk_digest public_seed publics;
    used = false;
  }

let params kp = kp.p
let public_seed kp = kp.public_seed
let public_elements kp = Array.copy kp.publics
let public_key_digest kp = kp.pk_digest

(* The paper salts the message digest with "the W-OTS+ public key and a
   random nonce" (§4.3). The verifier, however, must compute this digest
   *before* recovering the public key from the signature, so the salt
   has to travel with the signature: we use the per-key public seed,
   which provides the same multi-target protection (it is unique per key
   pair and bound to the public key through the chain masks). *)
(* Digest length: 128 bits of security, rounded up so that l1 digits of
   width log2(d) bits are always available (l1 * width can exceed 128 by
   a few bits when log2(d) does not divide 128, e.g. d = 8). *)
let digest_length (p : P.t) =
  let width = Params.log2_exact p.P.d in
  max 16 (((p.P.l1 * width) + 7) / 8)

let message_digest (p : P.t) ~public_seed ~nonce msg =
  Blake3.digest ~length:(digest_length p) (public_seed ^ nonce ^ msg)

(* Base-d digits of the salted digest plus checksum digits. *)
let all_digits (p : P.t) digest =
  let width = Params.log2_exact p.P.d in
  let msg_digits = Bits.digits digest ~width ~count:p.P.l1 in
  let checksum = Array.fold_left (fun acc m -> acc + (p.P.d - 1 - m)) 0 msg_digits in
  let cs_digits =
    Array.init p.P.l2 (fun i -> (checksum lsr (width * (p.P.l2 - 1 - i))) land (p.P.d - 1))
  in
  Array.append msg_digits cs_digits

type signature = { nonce : string; elements : string array }

let sign ?(allow_reuse = false) kp ~nonce msg =
  if kp.used && not allow_reuse then invalid_arg "Wots.sign: one-time key already used";
  kp.used <- true;
  if String.length nonce <> nonce_bytes then invalid_arg "Wots.sign: nonce must be 16 bytes";
  let digest = message_digest kp.p ~public_seed:kp.public_seed ~nonce msg in
  let digits = all_digits kp.p digest in
  let elements =
    match kp.chains with
    | Some chains -> Array.init kp.p.P.l (fun i -> chains.(i).(digits.(i)))
    | None ->
        let masks = masks ~n:kp.p.P.n ~d:kp.p.P.d kp.public_seed in
        Array.init kp.p.P.l (fun i ->
            chain ~hash:kp.hash ~n:kp.p.P.n ~masks ~from:0 ~upto:digits.(i) kp.secrets.(i))
  in
  { nonce; elements }

let recover_public_elements ?(hash = Hash.Haraka) (p : P.t) ~public_seed signature msg =
  if Array.length signature.elements <> p.P.l then
    invalid_arg "Wots.recover: wrong element count";
  let digest = message_digest p ~public_seed ~nonce:signature.nonce msg in
  let digits = all_digits p digest in
  let masks = masks ~n:p.P.n ~d:p.P.d public_seed in
  Array.init p.P.l (fun i ->
      chain ~hash ~n:p.P.n ~masks ~from:digits.(i) ~upto:(p.P.d - 1) signature.elements.(i))

let recover_public_key_digest ?hash (p : P.t) ~public_seed signature msg =
  compute_pk_digest public_seed (recover_public_elements ?hash p ~public_seed signature msg)

let verify ?hash (p : P.t) ~public_seed ~pk_digest signature msg =
  Array.length signature.elements = p.P.l
  && String.length signature.nonce = nonce_bytes
  && Array.for_all (fun e -> String.length e = p.P.n) signature.elements
  && Dsig_util.Bytesutil.equal_ct pk_digest
       (recover_public_key_digest ?hash p ~public_seed signature msg)

let signature_wire_bytes (p : P.t) = nonce_bytes + (p.P.l * p.P.n)
