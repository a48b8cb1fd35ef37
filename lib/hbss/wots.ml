open Dsig_hashes
module P = Params.Wots

(* One copy of each key's chain material: the whole chains when they
   are cached (their depth-0 column is the secrets, their depth-(d-1)
   column the public elements), the secrets alone otherwise. *)
type material =
  | Chains of string (* chain i at depth j at byte (i * d + j) * n *)
  | Secrets of string (* the l secrets, n bytes each *)

type keypair = {
  p : P.t;
  hash : Hash.algo;
  public_seed : string;
  material : material;
  pk_digest : string;
  mutable used : bool;
}

let nonce_bytes = 16

(* Mask r_j (j in 1..d-1) for the chaining function, derived from the
   public seed so that verification is stateless. *)
let mask ~n public_seed j =
  Blake3.keyed ~key:public_seed ~length:n
    ("wots-mask" ^ Dsig_util.Bytesutil.u32_le (Int32.of_int j))

(* --- the chain kernel --- *)

(* A walker advances chains, c_j = H(c_{j-1} xor r_j), for one call. It
   derives all d-1 masks up front: a keyed BLAKE3 costs more than the
   Haraka step it masks. The masks are not kept in the keypair, which
   would grow every queued key.

   With Haraka and n <= 32, the deployed setting, the chain value stays
   in ws.(0..7) as big-endian words from the first step to the last, and
   ws.(8j .. 8j+7) holds mask j. [Hash.digest] pads an input shorter
   than 32 bytes with zeros and its length in byte 31; that length byte
   is folded into each mask once. A step is then eight xors, one
   in-place Haraka-256 and a truncation to n bytes by word masks, with
   no allocation. Any other hash, or n > 32, walks strings through
   [Hash.digest]. *)
type walker =
  | Words of int array
  | Strings of { hash : Hash.algo; masks : string array; mutable v : string }

let mask32 = 0xffffffff

(* ws.(at .. at+7) <- the n bytes of [src] at [off], as big-endian words
   with zeros after byte n *)
let load_words ws at src off n =
  for k = 0 to 7 do
    let b = 4 * k in
    ws.(at + k) <-
      (if b + 4 <= n then Int32.to_int (String.get_int32_be src (off + b)) land mask32
       else begin
         let w = ref 0 in
         for i = 0 to 3 do
           let byte = if b + i < n then Char.code (String.get src (off + b + i)) else 0 in
           w := (!w lsl 8) lor byte
         done;
         !w
       end)
  done

let walker ~hash ~n ~d public_seed =
  match hash with
  | Hash.Haraka when n <= 32 ->
      let ws = Array.make (8 * d) 0 in
      for j = 1 to d - 1 do
        load_words ws (8 * j) (mask ~n public_seed j) 0 n;
        if n < 32 then ws.((8 * j) + 7) <- ws.((8 * j) + 7) lor n
      done;
      Words ws
  | _ ->
      let masks = Array.init d (fun j -> if j = 0 then "" else mask ~n public_seed j) in
      Strings { hash; masks; v = "" }

(* Take the n bytes of [src] at [off] as the chain value. *)
let load w ~n src off =
  match w with
  | Words ws -> load_words ws 0 src off n
  | Strings g -> g.v <- String.sub src off n

(* One chain step to depth j. *)
let step w ~n j =
  match w with
  | Words ws ->
      let m = 8 * j in
      for k = 0 to 7 do
        ws.(k) <- ws.(k) lxor ws.(m + k)
      done;
      Haraka.haraka256_words ws;
      let full = n lsr 2 in
      if full < 8 then begin
        ws.(full) <- ws.(full) land ((mask32 lsl (32 - (8 * (n land 3)))) land mask32);
        for k = full + 1 to 7 do
          ws.(k) <- 0
        done
      end
  | Strings g -> g.v <- Hash.digest g.hash ~length:n (Dsig_util.Bytesutil.xor g.v g.masks.(j))

(* Write the chain value, n bytes, to [dst] at [doff]. *)
let store w ~n dst doff =
  match w with
  | Words ws ->
      for k = 0 to (n lsr 2) - 1 do
        Bytes.set_int32_be dst (doff + (4 * k)) (Int32.of_int ws.(k))
      done;
      for i = n land lnot 3 to n - 1 do
        Bytes.set dst (doff + i) (Char.unsafe_chr ((ws.(i lsr 2) lsr (8 * (3 - (i land 3)))) land 0xff))
      done
  | Strings g -> Bytes.blit_string g.v 0 dst doff n

(* Advance the value at [src.[off]] from depth [from] to depth [upto]
   and write it to [dst] at [doff]. *)
let walk w ~n src off ~from ~upto dst doff =
  load w ~n src off;
  for j = from + 1 to upto do
    step w ~n j
  done;
  store w ~n dst doff

(* --- keys --- *)

let generate ?(hash = Hash.Haraka) ?(cache_chains = true) (p : P.t) ~seed =
  if String.length seed <> 32 then invalid_arg "Wots.generate: need a 32-byte seed";
  let n = p.P.n and d = p.P.d and l = p.P.l in
  let public_seed = Blake3.derive_key ~context:"dsig wots public seed" seed in
  (* All l secrets in one XOF call (§4.4). *)
  let secrets = Blake3.derive_key ~context:"dsig wots secrets" ~length:(l * n) seed in
  let w = walker ~hash ~n ~d public_seed in
  (* public seed, then the l public elements: hashed once into the
     digest, then dropped *)
  let public_key = Bytes.create (32 + (l * n)) in
  Bytes.blit_string public_seed 0 public_key 0 32;
  let material =
    if cache_chains then begin
      let c = Bytes.create (l * d * n) in
      for i = 0 to l - 1 do
        load w ~n secrets (i * n);
        store w ~n c (i * d * n);
        for j = 1 to d - 1 do
          step w ~n j;
          store w ~n c (((i * d) + j) * n)
        done;
        store w ~n public_key (32 + (i * n))
      done;
      Chains (Bytes.unsafe_to_string c)
    end
    else begin
      for i = 0 to l - 1 do
        walk w ~n secrets (i * n) ~from:0 ~upto:(d - 1) public_key (32 + (i * n))
      done;
      Secrets secrets
    end
  in
  {
    p;
    hash;
    public_seed;
    material;
    pk_digest = Blake3.digest (Bytes.unsafe_to_string public_key);
    used = false;
  }

let params kp = kp.p
let public_seed kp = kp.public_seed

(* The chain ends, read from the cached chains or walked again from the
   secrets. *)
let public_elements kp =
  let n = kp.p.P.n and d = kp.p.P.d in
  match kp.material with
  | Chains c -> Array.init kp.p.P.l (fun i -> String.sub c (((i * d) + d - 1) * n) n)
  | Secrets secrets ->
      let w = walker ~hash:kp.hash ~n ~d kp.public_seed in
      Array.init kp.p.P.l (fun i ->
          let e = Bytes.create n in
          walk w ~n secrets (i * n) ~from:0 ~upto:(d - 1) e 0;
          Bytes.unsafe_to_string e)

let public_key_digest kp = kp.pk_digest

(* Digest length: 128 bits of security, rounded up so that l1 digits of
   width log2(d) bits are always available (l1 * width can exceed 128 by
   a few bits when log2(d) does not divide 128, e.g. d = 8). *)
let digest_length (p : P.t) =
  let width = Params.log2_exact p.P.d in
  max 16 (((p.P.l1 * width) + 7) / 8)

(* Public seed || nonce || message in one buffer, with its digest
   written over the buffer's start: signing and recovery share this
   code, so a verify right after a sign finds it warm.

   The paper salts the message digest with "the W-OTS+ public key and a
   random nonce" (§4.3). The verifier, however, must compute this digest
   *before* recovering the public key from the signature, so the salt
   has to travel with the signature: we use the per-key public seed,
   which provides the same multi-target protection (it is unique per key
   pair and bound to the public key through the chain masks). *)
let salted_digest (p : P.t) ~public_seed ~nonce ~nonce_off msg =
  let len = 32 + nonce_bytes + String.length msg in
  let salted = Bytes.create len in
  Bytes.blit_string public_seed 0 salted 0 32;
  Bytes.blit_string nonce nonce_off salted 32 nonce_bytes;
  Bytes.blit_string msg 0 salted (32 + nonce_bytes) (String.length msg);
  Blake3.digest_into ~length:(digest_length p) salted ~off:0 ~len salted ~dst_off:0;
  Bytes.unsafe_to_string salted

(* Digit i of the salted digest: [width] bits from bit i * width, most
   significant first, taken by shifts from the byte that holds them or,
   for a width that does not divide 8, from the bytes they span. The
   digest holds at least l1 * width bits (see [digest_length]). *)
let digit_spanning digest ~width pos =
  let first = pos lsr 3 and last = (pos + width - 1) lsr 3 in
  let acc = ref 0 in
  for b = first to last do
    acc := (!acc lsl 8) lor Char.code (String.get digest b)
  done;
  (!acc lsr ((8 * (last - first + 1)) - width - (pos land 7))) land ((1 lsl width) - 1)

let[@inline] digit digest ~width i =
  let pos = i * width in
  let shift = 8 - (pos land 7) - width in
  if shift >= 0 then
    (Char.code (String.unsafe_get digest (pos lsr 3)) lsr shift) land ((1 lsl width) - 1)
  else digit_spanning digest ~width pos

(* The base-d checksum of the l1 message digits. *)
let checksum (p : P.t) ~width digest =
  let c = ref 0 in
  for i = 0 to p.P.l1 - 1 do
    c := !c + (p.P.d - 1 - digit digest ~width i)
  done;
  !c

(* Chain i's digit: a message digit for i < l1, a checksum digit after. *)
let[@inline] chain_digit (p : P.t) ~width digest ~checksum i =
  if i < p.P.l1 then digit digest ~width i
  else (checksum lsr (width * (p.P.l - 1 - i))) land (p.P.d - 1)

type signature = { nonce : string; elements : string }

let sign_into ?(allow_reuse = false) kp ~nonce ~nonce_off msg dst off =
  if kp.used && not allow_reuse then invalid_arg "Wots.sign: one-time key already used";
  if nonce_off < 0 || nonce_off > String.length nonce - nonce_bytes then
    invalid_arg "Wots.sign: nonce must be 16 bytes";
  let p = kp.p in
  let n = p.P.n and d = p.P.d and l = p.P.l in
  if off < 0 || off > Bytes.length dst - (l * n) then
    invalid_arg "Wots.sign_into: output out of range";
  kp.used <- true;
  let digest = salted_digest p ~public_seed:kp.public_seed ~nonce ~nonce_off msg in
  let width = Params.log2_exact d in
  let checksum = checksum p ~width digest in
  match kp.material with
  | Chains chains ->
      for i = 0 to l - 1 do
        let digit = chain_digit p ~width digest ~checksum i in
        Bytes.blit_string chains (((i * d) + digit) * n) dst (off + (i * n)) n
      done
  | Secrets secrets ->
      let w = walker ~hash:kp.hash ~n ~d kp.public_seed in
      for i = 0 to l - 1 do
        let digit = chain_digit p ~width digest ~checksum i in
        walk w ~n secrets (i * n) ~from:0 ~upto:digit dst (off + (i * n))
      done

let sign ?allow_reuse kp ~nonce msg =
  if String.length nonce <> nonce_bytes then invalid_arg "Wots.sign: nonce must be 16 bytes";
  let elements = Bytes.create (kp.p.P.l * kp.p.P.n) in
  sign_into ?allow_reuse kp ~nonce ~nonce_off:0 msg elements 0;
  { nonce; elements = Bytes.unsafe_to_string elements }

(* Public seed, then the l recovered public elements: the input of the
   public-key digest. The walker reads element i at offset i * n of one
   string, so a wrong length would shift or cut elements rather than
   fail: the lengths are checked here. *)
let recover_public_key ~hash (p : P.t) ~public_seed signature msg =
  let n = p.P.n and d = p.P.d in
  if String.length public_seed <> 32 then invalid_arg "Wots.recover: public seed must be 32 bytes";
  if String.length signature.nonce <> nonce_bytes then
    invalid_arg "Wots.recover: nonce must be 16 bytes";
  if String.length signature.elements <> p.P.l * n then
    invalid_arg "Wots.recover: elements must be l * n bytes";
  let digest = salted_digest p ~public_seed ~nonce:signature.nonce ~nonce_off:0 msg in
  let width = Params.log2_exact d in
  let checksum = checksum p ~width digest in
  let w = walker ~hash ~n ~d public_seed in
  let buf = Bytes.create (32 + (p.P.l * n)) in
  Bytes.blit_string public_seed 0 buf 0 32;
  for i = 0 to p.P.l - 1 do
    let digit = chain_digit p ~width digest ~checksum i in
    walk w ~n signature.elements (i * n) ~from:digit ~upto:(d - 1) buf (32 + (i * n))
  done;
  buf

let recover_public_elements ?(hash = Hash.Haraka) (p : P.t) ~public_seed signature msg =
  let buf = recover_public_key ~hash p ~public_seed signature msg in
  Array.init p.P.l (fun i -> Bytes.sub_string buf (32 + (i * p.P.n)) p.P.n)

let recover_public_key_digest ?(hash = Hash.Haraka) (p : P.t) ~public_seed signature msg =
  Blake3.digest (Bytes.unsafe_to_string (recover_public_key ~hash p ~public_seed signature msg))

let verify ?hash (p : P.t) ~public_seed ~pk_digest signature msg =
  String.length signature.elements = p.P.l * p.P.n
  && String.length signature.nonce = nonce_bytes
  && String.length public_seed = 32
  && Dsig_util.Bytesutil.equal_ct pk_digest
       (recover_public_key_digest ?hash p ~public_seed signature msg)

let signature_wire_bytes (p : P.t) = nonce_bytes + (p.P.l * p.P.n)
