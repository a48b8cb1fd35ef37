type algo = Sha256 | Blake3 | Haraka

let all = [ Sha256; Blake3; Haraka ]

let to_string = function Sha256 -> "sha256" | Blake3 -> "blake3" | Haraka -> "haraka"

let of_string = function
  | "sha256" -> Sha256
  | "blake3" -> Blake3
  | "haraka" -> Haraka
  | s -> invalid_arg ("Hash.of_string: unknown algorithm " ^ s)

(* Length-tagged zero padding: pad [s] to [n] bytes, encoding the
   original length in the final byte so distinct short inputs stay
   distinct. Requires [String.length s < n] and [n - 1 <= 255]. *)
let pad_tagged s n =
  let len = String.length s in
  assert (len < n && n - 1 <= 255);
  let b = Bytes.make n '\x00' in
  Bytes.blit_string s 0 b 0 len;
  Bytes.set b (n - 1) (Char.chr len);
  Bytes.unsafe_to_string b

(* [length] (at most 32) truncates inside Haraka's output write. *)
let haraka_any ?length s =
  let len = String.length s in
  if len = 32 then Haraka.haraka256 ?length s
  else if len = 64 then Haraka.haraka512 ?length s
  else if len < 32 then Haraka.haraka256 ?length (pad_tagged s 32)
  else if len < 64 then Haraka.haraka512 ?length (pad_tagged s 64)
  else begin
    (* Merkle–Damgård fold over 32-byte blocks through the 64-byte
       permutation, with a final length block. *)
    let acc = ref (String.make 32 '\x00') in
    List.iter
      (fun chunk ->
        let chunk = if String.length chunk = 32 then chunk else pad_tagged chunk 32 in
        acc := Haraka.haraka512 (!acc ^ chunk))
      (Dsig_util.Bytesutil.chunks 32 s);
    Haraka.haraka512 ?length (!acc ^ pad_tagged (Dsig_util.Bytesutil.u64_le (Int64.of_int len)) 32)
  end

let base_digest algo s =
  match algo with
  | Sha256 -> Sha256.digest s
  | Blake3 -> Blake3.digest s
  | Haraka -> haraka_any s

let digest algo ?(length = 32) s =
  match algo with
  | Blake3 -> Blake3.digest ~length s
  | Haraka when length <= 32 -> haraka_any ~length s
  | Sha256 | Haraka ->
      let d = base_digest algo s in
      if length <= 32 then String.sub d 0 length
      else begin
        (* counter-mode extension *)
        let buf = Buffer.create length in
        let i = ref 0 in
        while Buffer.length buf < length do
          Buffer.add_string buf (base_digest algo (d ^ Dsig_util.Bytesutil.u32_le (Int32.of_int !i)));
          incr i
        done;
        Buffer.sub buf 0 length
      end
