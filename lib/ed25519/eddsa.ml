open Dsig_hashes

type secret_key = {
  seed : string;
  scalar : string; (* clamped secret scalar, 32 bytes *)
  prefix : string; (* second half of SHA-512(seed) *)
  pk : string; (* cached compressed public key *)
}

type public_key = string

let public_key_size = 32
let signature_size = 64

let clamp h32 =
  let b = Bytes.of_string h32 in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 248));
  Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 127 lor 64));
  Bytes.unsafe_to_string b

let secret_of_seed seed =
  if String.length seed <> 32 then invalid_arg "Eddsa.secret_of_seed: need 32 bytes";
  let h = Sha512.digest seed in
  let scalar = clamp (String.sub h 0 32) in
  let prefix = String.sub h 32 32 in
  let pk = Point.compress (Point.base_mul scalar) in
  { seed; scalar; prefix; pk }

let seed_of_secret sk = sk.seed
let public_key sk = sk.pk

let generate rng =
  let sk = secret_of_seed (Dsig_util.Rng.bytes rng 32) in
  (sk, sk.pk)

let sign sk msg =
  let r = Scalar.reduce_bytes (Sha512.digest (sk.prefix ^ msg)) in
  let r_enc = Point.compress (Point.base_mul r) in
  let k = Scalar.reduce_bytes (Sha512.digest (r_enc ^ sk.pk ^ msg)) in
  let s = Scalar.muladd k sk.scalar r in
  r_enc ^ s

(* S, R and k = H(R || A || msg) mod L over the key's bytes as given,
   or None if S >= L or R does not decode *)
let decode pk msg signature =
  if String.length signature <> 64 then None
  else begin
    let r_enc = String.sub signature 0 32 in
    match (Scalar.of_bytes_checked (String.sub signature 32 32), Point.decompress r_enc) with
    | Some s, Some r -> Some (s, r, Scalar.reduce_bytes (Sha512.digest (r_enc ^ pk ^ msg)))
    | _ -> None
  end

(* ... and A, for the paths that take the key as bytes *)
let decode_with_key pk msg signature =
  match (decode pk msg signature, Point.decompress pk) with
  | Some (s, r, k), Some a -> Some (s, r, a, k)
  | _ -> None

(* [S]B = R + [k]A, checked as R = [S]B + [k](-A) in one pass *)
let verify pk msg signature =
  match decode_with_key pk msg signature with
  | Some (s, r, a, k) -> Point.equal r (Point.multi_scalar_mul ~base:s [ (k, Point.negate a) ])
  | None -> false

(* The key's original bytes (k hashes them, canonical or not) and -A
   prepared for the 128-step chain. *)
type verifying_key = { pk : public_key; neg_a : Point.prepared }

let verifying_key pk =
  Option.map (fun a -> { pk; neg_a = Point.prepare (Point.negate a) }) (Point.decompress pk)

let verifying_key_bytes vk = vk.pk

let verify_with vk msg signature =
  match decode vk.pk msg signature with
  | Some (s, r, k) -> Point.equal r (Point.prepared_mul ~base:s k vk.neg_a)
  | None -> false

(* Randomized batch verification: with random z_i, the linear relation
   [sum z_i S_i] B - sum [z_i] R_i - sum [z_i k_i] A_i = O holds for all
   batches of valid signatures and fails w.h.p. if any is invalid. *)
let verify_batch rng entries =
  let decoded = List.map (fun (pk, msg, signature) -> decode_with_key pk msg signature) entries in
  if List.exists Option.is_none decoded then false
  else begin
    let decoded = List.filter_map Fun.id decoded in
    (* z = 1 + a uniform 128-bit value, as (v * 1 + 1) mod L *)
    let z () = Scalar.muladd (Dsig_util.Rng.bytes rng 16 ^ String.make 16 '\x00') Scalar.one Scalar.one in
    (* check [sum z_i S_i] B - sum [z_i] R_i - sum [z_i k_i] A_i = O with
       one shared-doubling multi-scalar multiplication *)
    let base = ref Scalar.zero in
    let terms =
      List.concat_map
        (fun (s, r, a, k) ->
          let zi = z () in
          base := Scalar.muladd zi s !base;
          [ (zi, Point.negate r); (Scalar.muladd zi k Scalar.zero, Point.negate a) ])
        decoded
    in
    Point.equal Point.identity (Point.multi_scalar_mul ~base:!base terms)
  end
