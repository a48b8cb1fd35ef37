module Merkle = Dsig_merkle.Merkle

type keypair = {
  hash : Dsig_hashes.Hash.algo;
  p : Params.Wots.t;
  keys : Wots.keypair array;
  tree : Merkle.t;
  mutable next : int;
}

let generate ?(hash = Dsig_hashes.Hash.Haraka) ?(wots_d = 4) ~height ~seed () =
  if height < 1 || height > 20 then invalid_arg "Mss.generate: height must be in [1, 20]";
  if String.length seed <> 32 then invalid_arg "Mss.generate: need a 32-byte seed";
  let p = Params.Wots.make ~d:wots_d () in
  let n = 1 lsl height in
  let keys =
    Array.init n (fun i ->
        let leaf_seed =
          Dsig_hashes.Blake3.derive_key ~context:"dsig mss leaf"
            (seed ^ Dsig_util.Bytesutil.u32_le (Int32.of_int i))
        in
        Wots.generate ~hash p ~seed:leaf_seed)
  in
  let tree = Merkle.build (Array.map Wots.public_key_digest keys) in
  { hash; p; keys; tree; next = 0 }

let public_key kp = Merkle.root kp.tree
let capacity kp = Array.length kp.keys
let remaining kp = capacity kp - kp.next

type signature = {
  leaf_index : int;
  public_seed : string;
  wots_sig : Wots.signature;
  proof : Merkle.proof;
}

let sign kp msg =
  if kp.next >= capacity kp then invalid_arg "Mss.sign: key exhausted";
  let i = kp.next in
  kp.next <- i + 1;
  let key = kp.keys.(i) in
  (* deterministic per-leaf nonce: the leaf is one-time anyway *)
  let nonce = String.sub (Dsig_hashes.Blake3.digest (Wots.public_seed key)) 0 16 in
  {
    leaf_index = i;
    public_seed = Wots.public_seed key;
    wots_sig = Wots.sign key ~nonce msg;
    proof = Merkle.proof kp.tree i;
  }

let verify ?(hash = Dsig_hashes.Hash.Haraka) ?(wots_d = 4) ~public_key signature msg =
  let p = Params.Wots.make ~d:wots_d () in
  signature.proof.Merkle.index = signature.leaf_index
  && String.length signature.wots_sig.Wots.elements = Params.Wots.signature_bytes p
  && String.length signature.wots_sig.Wots.nonce = 16
  && String.length signature.public_seed = 32
  &&
  let leaf =
    Wots.recover_public_key_digest ~hash p ~public_seed:signature.public_seed
      signature.wots_sig msg
  in
  Merkle.verify ~root:public_key ~leaf signature.proof

let signature_bytes ?(wots_d = 4) ~height () =
  let p = Params.Wots.make ~d:wots_d () in
  32 (* public seed *) + Wots.signature_wire_bytes p + 4 + (32 * height)
