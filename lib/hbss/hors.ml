open Dsig_hashes
module P = Params.Hors
module Merkle = Dsig_merkle.Merkle

type keypair = {
  p : P.t;
  hash : Hash.algo;
  public_seed : string;
  secrets : string array;
  publics : string array;
  pk_digest : string;
  mutable cached_forest : (int * Merkle.Forest.forest) option;
  mutable uses : int;
}

let nonce_bytes = 16
let default_trees = 8

(* The factorized public key's digest, the batch leaf: BLAKE3(public
   seed || the t elements in index order). *)
let key_digest ~public_seed elements =
  Blake3.digest (String.concat "" (public_seed :: Array.to_list elements))

let generate ?(hash = Hash.Haraka) (p : P.t) ~seed =
  if String.length seed <> 32 then invalid_arg "Hors.generate: need a 32-byte seed";
  let public_seed = Blake3.derive_key ~context:"dsig hors public seed" seed in
  let blob = Blake3.derive_key ~context:"dsig hors secrets" ~length:(p.P.t * p.P.n) seed in
  let secrets = Array.init p.P.t (fun i -> String.sub blob (i * p.P.n) p.P.n) in
  let publics = Array.map (fun s -> Hash.digest hash ~length:p.P.n s) secrets in
  {
    p;
    hash;
    public_seed;
    secrets;
    publics;
    pk_digest = key_digest ~public_seed publics;
    cached_forest = None;
    uses = 0;
  }

let params kp = kp.p
let public_elements kp = Array.copy kp.publics
let public_key_digest kp = kp.pk_digest
let public_seed kp = kp.public_seed

let forest ?(trees = default_trees) kp =
  match kp.cached_forest with
  | Some (t, f) when t = trees -> f
  | _ ->
      let f = Merkle.Forest.build ~trees kp.publics in
      kp.cached_forest <- Some (trees, f);
      f

let message_indices (p : P.t) ~public_seed ~nonce msg =
  let bits_needed = p.P.k * p.P.log2_t in
  let digest =
    Blake3.digest ~length:((bits_needed + 7) / 8) (public_seed ^ nonce ^ msg)
  in
  Bits.digits digest ~width:p.P.log2_t ~count:p.P.k

type signature = { nonce : string; revealed : string array }

let sign ?(allow_reuse = false) kp ~nonce msg =
  if kp.uses >= kp.p.P.r && not allow_reuse then
    invalid_arg "Hors.sign: one-time key already used";
  kp.uses <- kp.uses + 1;
  if String.length nonce <> nonce_bytes then invalid_arg "Hors.sign: nonce must be 16 bytes";
  let indices = message_indices kp.p ~public_seed:kp.public_seed ~nonce msg in
  { nonce; revealed = Array.map (fun i -> kp.secrets.(i)) indices }

let well_formed (p : P.t) signature =
  Array.length signature.revealed = p.P.k
  && String.length signature.nonce = nonce_bytes
  && Array.for_all (fun s -> String.length s = p.P.n) signature.revealed

let verify_with_elements ?(hash = Hash.Haraka) (p : P.t) ~public_seed ~elements signature msg =
  well_formed p signature
  && Array.length elements = p.P.t
  &&
  let indices = message_indices p ~public_seed ~nonce:signature.nonce msg in
  let ok = ref true in
  Array.iteri
    (fun j idx ->
      if
        not
          (Dsig_util.Bytesutil.equal_ct elements.(idx)
             (Hash.digest hash ~length:p.P.n signature.revealed.(j)))
      then ok := false)
    indices;
  !ok

let deduced_elements ?(hash = Hash.Haraka) (p : P.t) ~public_seed signature msg =
  let indices = message_indices p ~public_seed ~nonce:signature.nonce msg in
  Array.mapi (fun j idx -> (idx, Hash.digest hash ~length:p.P.n signature.revealed.(j))) indices

let complement kp signature msg =
  let selected = Array.make kp.p.P.t false in
  Array.iter
    (fun i -> selected.(i) <- true)
    (message_indices kp.p ~public_seed:kp.public_seed ~nonce:signature.nonce msg);
  Array.of_list (List.filteri (fun i _ -> not selected.(i)) (Array.to_list kp.publics))

(* The deduced elements fill their indices; a second revealed secret on
   an index must hash to the same element. The complement then fills
   the remaining indices in order and must fit them exactly. *)
let recover_public_key_digest ?hash (p : P.t) ~public_seed signature ~complement msg =
  if not (well_formed p signature) then None
  else begin
    let elements = Array.make p.P.t "" in
    let consistent =
      Array.for_all
        (fun (idx, h) ->
          if elements.(idx) = "" then begin
            elements.(idx) <- h;
            true
          end
          else Dsig_util.Bytesutil.equal_ct elements.(idx) h)
        (deduced_elements ?hash p ~public_seed signature msg)
    in
    let missing = Array.fold_left (fun n e -> if e = "" then n + 1 else n) 0 elements in
    if (not consistent) || Array.length complement <> missing then None
    else begin
      let next = ref 0 in
      Array.iteri
        (fun i e ->
          if e = "" then begin
            elements.(i) <- complement.(!next);
            incr next
          end)
        elements;
      Some (key_digest ~public_seed elements)
    end
  end

let verify_with_forest ?(hash = Hash.Haraka) (p : P.t) ~public_seed ~roots ~proofs signature msg =
  well_formed p signature
  && Array.length proofs = p.P.k
  &&
  let indices = message_indices p ~public_seed ~nonce:signature.nonce msg in
  let per_tree =
    match List.length roots with
    | 0 -> 0
    | ntrees -> p.P.t / ntrees
  in
  per_tree > 0
  &&
  let ok = ref true in
  Array.iteri
    (fun j idx ->
      let tree, pf = proofs.(j) in
      let element = Hash.digest hash ~length:p.P.n signature.revealed.(j) in
      (* the proof must be for the leaf position the message demands *)
      if tree <> idx / per_tree || pf.Merkle.index <> idx mod per_tree then ok := false
      else if not (Merkle.Forest.verify ~roots ~leaf:element (tree, pf)) then ok := false)
    indices;
  !ok
