let round_constants =
  Array.init 40 (fun i ->
      String.sub (Sha256.digest (Printf.sprintf "haraka-rc%02d" i)) 0 16)

(* The constants as AES round-key words, parsed once: constant i is words
   4i .. 4i+3. *)
let round_keys = Array.init 160 (fun i -> Aes_core.get_word round_constants.(i / 4) (4 * (i mod 4)))

(* The string functions load their input into one int array per call,
   lane l in words 4l .. 4l+3: a module-level scratch array would be
   shared by every domain. *)
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

let table = Aes_core.table

(* [Aes_core.column], repeated here because the library is compiled
   without cross-module inlining. *)
let[@inline] column a b c d =
  Array.unsafe_get table (a lsr 24)
  lxor Array.unsafe_get table (((b lsr 16) land 0xff) + 256)
  lxor Array.unsafe_get table (((c lsr 8) land 0xff) + 512)
  lxor Array.unsafe_get table ((d land 0xff) + 768)

let[@inline] key k = Array.unsafe_get round_keys k

(* Lanes a and b live in eight local variables for all 20 AES rounds,
   and the input stays in s until the feed-forward. Round r keys lane a
   with words 16r .. 16r+7 and lane b with 16r+8 .. 16r+15. An AES round
   maps words below 2^32 to words below 2^32, so the check on entry keeps
   every table index in range. *)
let haraka256_words s =
  if Array.length s < 8 then invalid_arg "Haraka.haraka256_words: need 8 words";
  let a0 = ref s.(0) and a1 = ref s.(1) and a2 = ref s.(2) and a3 = ref s.(3) in
  let b0 = ref s.(4) and b1 = ref s.(5) and b2 = ref s.(6) and b3 = ref s.(7) in
  if (!a0 lor !a1 lor !a2 lor !a3 lor !b0 lor !b1 lor !b2 lor !b3) lsr 32 <> 0 then
    invalid_arg "Haraka.haraka256_words: words must be in 0 .. 2^32-1";
  for r = 0 to 4 do
    let k = 16 * r in
    (* two AES rounds on lane a: e, then f *)
    let c0 = !a0 and c1 = !a1 and c2 = !a2 and c3 = !a3 in
    let e0 = column c0 c1 c2 c3 lxor key k in
    let e1 = column c1 c2 c3 c0 lxor key (k + 1) in
    let e2 = column c2 c3 c0 c1 lxor key (k + 2) in
    let e3 = column c3 c0 c1 c2 lxor key (k + 3) in
    let f0 = column e0 e1 e2 e3 lxor key (k + 4) in
    let f1 = column e1 e2 e3 e0 lxor key (k + 5) in
    let f2 = column e2 e3 e0 e1 lxor key (k + 6) in
    let f3 = column e3 e0 e1 e2 lxor key (k + 7) in
    (* two AES rounds on lane b: e, then g *)
    let c0 = !b0 and c1 = !b1 and c2 = !b2 and c3 = !b3 in
    let e0 = column c0 c1 c2 c3 lxor key (k + 8) in
    let e1 = column c1 c2 c3 c0 lxor key (k + 9) in
    let e2 = column c2 c3 c0 c1 lxor key (k + 10) in
    let e3 = column c3 c0 c1 c2 lxor key (k + 11) in
    let g0 = column e0 e1 e2 e3 lxor key (k + 12) in
    let g1 = column e1 e2 e3 e0 lxor key (k + 13) in
    let g2 = column e2 e3 e0 e1 lxor key (k + 14) in
    let g3 = column e3 e0 e1 e2 lxor key (k + 15) in
    (* unpacklo/unpackhi on 32-bit words, mirroring _mm_unpacklo_epi32
       with big-endian words: lanes (f0 f1 f2 f3) (g0 g1 g2 g3) become
       (f0 g0 f1 g1) (f2 g2 f3 g3) *)
    a0 := f0;
    a1 := g0;
    a2 := f1;
    a3 := g1;
    b0 := f2;
    b1 := g2;
    b2 := f3;
    b3 := g3
  done;
  (* feed-forward *)
  s.(0) <- !a0 lxor s.(0);
  s.(1) <- !a1 lxor s.(1);
  s.(2) <- !a2 lxor s.(2);
  s.(3) <- !a3 lxor s.(3);
  s.(4) <- !b0 lxor s.(4);
  s.(5) <- !b1 lxor s.(5);
  s.(6) <- !b2 lxor s.(6);
  s.(7) <- !b3 lxor s.(7)

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
