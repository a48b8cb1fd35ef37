let round_constants =
  Array.init 40 (fun i ->
      String.sub (Sha256.digest (Printf.sprintf "haraka-rc%02d" i)) 0 16)

(* The constants as AES round-key words, parsed once: constant i is words
   4i .. 4i+3. *)
let round_keys = Array.init 160 (fun i -> Aes_core.get_word round_constants.(i / 4) (4 * (i mod 4)))

(* The state is one int array per call, lane l in words 4l .. 4l+3: a
   module-level scratch array would be shared by every domain. *)
let load x words =
  let s = Array.make words 0 in
  for i = 0 to words - 1 do
    s.(i) <- Aes_core.get_word x (4 * i)
  done;
  s

(* Two AES rounds on lane [lane] with constants [c] and [c + 1]. *)
let aes2 s lane c =
  Aes_core.round s (4 * lane) ~rk:round_keys (4 * c);
  Aes_core.round s (4 * lane) ~rk:round_keys (4 * (c + 1))

(* The first [length] bytes of the big-endian words s.(0), s.(1), ... *)
let output s ~fn length =
  if length < 0 || length > 32 then invalid_arg (fn ^ ": length must be in 0..32");
  let out = Bytes.create length in
  for i = 0 to length - 1 do
    Bytes.unsafe_set out i (Char.unsafe_chr ((s.(i lsr 2) lsr (8 * (3 - (i land 3)))) land 0xff))
  done;
  Bytes.unsafe_to_string out

let haraka256_words s =
  if Array.length s < 8 then invalid_arg "Haraka.haraka256_words: need 8 words";
  let x0 = s.(0) and x1 = s.(1) and x2 = s.(2) and x3 = s.(3) in
  let x4 = s.(4) and x5 = s.(5) and x6 = s.(6) and x7 = s.(7) in
  for r = 0 to 4 do
    aes2 s 0 (4 * r);
    aes2 s 1 ((4 * r) + 2);
    (* unpacklo/unpackhi on 32-bit words, mirroring _mm_unpacklo_epi32
       with big-endian words: lanes (a0 a1 a2 a3) (b0 b1 b2 b3) become
       (a0 b0 a1 b1) (a2 b2 a3 b3). *)
    let a1 = s.(1) and a2 = s.(2) and a3 = s.(3) and b0 = s.(4) and b1 = s.(5) and b2 = s.(6) in
    s.(1) <- b0;
    s.(2) <- a1;
    s.(3) <- b1;
    s.(4) <- a2;
    s.(5) <- b2;
    s.(6) <- a3
  done;
  (* feed-forward *)
  s.(0) <- s.(0) lxor x0;
  s.(1) <- s.(1) lxor x1;
  s.(2) <- s.(2) lxor x2;
  s.(3) <- s.(3) lxor x3;
  s.(4) <- s.(4) lxor x4;
  s.(5) <- s.(5) lxor x5;
  s.(6) <- s.(6) lxor x6;
  s.(7) <- s.(7) lxor x7

let haraka256 ?(length = 32) x =
  if String.length x <> 32 then invalid_arg "Haraka.haraka256: input must be 32 bytes";
  let s = load x 8 in
  haraka256_words s;
  output s ~fn:"Haraka.haraka256" length

(* Truncation keeps bytes 8..15 of lanes 0 and 1 and bytes 0..7 of lanes
   2 and 3. *)
let kept_words = [| 2; 3; 6; 7; 8; 9; 12; 13 |]

let haraka512 ?(length = 32) x =
  if String.length x <> 64 then invalid_arg "Haraka.haraka512: input must be 64 bytes";
  let s = load x 16 in
  for r = 0 to 4 do
    for lane = 0 to 3 do
      aes2 s lane ((8 * r) + (2 * lane))
    done;
    (* MIX4: unpacklo/unpackhi across lanes a b c d leaves word 3 - l of
       a, c, b, d in lane l. *)
    let a0 = s.(0) and a1 = s.(1) and a2 = s.(2) and a3 = s.(3) in
    let b0 = s.(4) and b1 = s.(5) and b2 = s.(6) and b3 = s.(7) in
    let c0 = s.(8) and c1 = s.(9) and c2 = s.(10) and c3 = s.(11) in
    let d0 = s.(12) and d1 = s.(13) and d2 = s.(14) and d3 = s.(15) in
    s.(0) <- a3; s.(1) <- c3; s.(2) <- b3; s.(3) <- d3;
    s.(4) <- a2; s.(5) <- c2; s.(6) <- b2; s.(7) <- d2;
    s.(8) <- a1; s.(9) <- c1; s.(10) <- b1; s.(11) <- d1;
    s.(12) <- a0; s.(13) <- c0; s.(14) <- b0; s.(15) <- d0
  done;
  (* feed-forward of the kept words, packed into s.(0 .. 7); each source
     word lies at or after its destination, so none is overwritten early *)
  for i = 0 to 7 do
    let w = kept_words.(i) in
    s.(i) <- s.(w) lxor Aes_core.get_word x (4 * w)
  done;
  output s ~fn:"Haraka.haraka512" length

(* haraka512 consumes 8 constants per round over 5 rounds (all 40);
   haraka256 consumes 4 per round (RC[4r .. 4r+3]), overlapping the 512
   schedule — harmless for a reconstruction that is already documented
   as non-interoperable. *)
