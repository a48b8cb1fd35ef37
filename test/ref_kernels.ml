(* Reference copies of the hash-chain kernels in their earlier, plainly
   specified form, kept for differential testing:

   - Haraka on string round constants and [Aes_core.round_naive], one
     fresh 4-word state per AES round and per unpack;
   - BLAKE3 compression that permutes the message words between rounds;
   - [Hash.digest] for Haraka with concatenation padding;
   - W-OTS+ deriving its keyed-BLAKE3 chain mask on every step.

   test_hashes and test_hbss check the library against these byte for
   byte. Nothing here is tuned: each function is the simplest reading of
   its specification. *)

open Dsig_hashes
module Bytesutil = Dsig_util.Bytesutil

module Haraka = struct
  let round_constants =
    Array.init 40 (fun i ->
        String.sub (Sha256.digest (Printf.sprintf "haraka-rc%02d" i)) 0 16)

  let unpacklo (a : Aes_core.state) (b : Aes_core.state) = [| a.(0); b.(0); a.(1); b.(1) |]
  let unpackhi (a : Aes_core.state) (b : Aes_core.state) = [| a.(2); b.(2); a.(3); b.(3) |]
  let aes2 st rc0 rc1 = Aes_core.round_naive (Aes_core.round_naive st ~rc:rc0) ~rc:rc1
  let feed_forward st x off = Array.mapi (fun i w -> w lxor (Aes_core.state_of_string x off).(i)) st

  let haraka256 x =
    assert (String.length x = 32);
    let s0 = ref (Aes_core.state_of_string x 0) in
    let s1 = ref (Aes_core.state_of_string x 16) in
    for r = 0 to 4 do
      let rc i = round_constants.((4 * r) + i) in
      s0 := aes2 !s0 (rc 0) (rc 1);
      s1 := aes2 !s1 (rc 2) (rc 3);
      let t = unpacklo !s0 !s1 in
      s1 := unpackhi !s0 !s1;
      s0 := t
    done;
    Aes_core.string_of_state (feed_forward !s0 x 0)
    ^ Aes_core.string_of_state (feed_forward !s1 x 16)

  let haraka512 x =
    assert (String.length x = 64);
    let s = Array.init 4 (fun i -> Aes_core.state_of_string x (16 * i)) in
    for r = 0 to 4 do
      let rc i = round_constants.((8 * r) + i) in
      for lane = 0 to 3 do
        s.(lane) <- aes2 s.(lane) (rc (2 * lane)) (rc ((2 * lane) + 1))
      done;
      let t0 = unpacklo s.(0) s.(1) in
      let u0 = unpackhi s.(0) s.(1) in
      let t1 = unpacklo s.(2) s.(3) in
      let u1 = unpackhi s.(2) s.(3) in
      s.(0) <- unpackhi u0 u1;
      s.(1) <- unpacklo u0 u1;
      s.(2) <- unpackhi t0 t1;
      s.(3) <- unpacklo t0 t1
    done;
    let b lane = Aes_core.string_of_state (feed_forward s.(lane) x (16 * lane)) in
    String.sub (b 0) 8 8 ^ String.sub (b 1) 8 8 ^ String.sub (b 2) 0 8 ^ String.sub (b 3) 0 8
end

module Blake3 = struct
  let mask32 = 0xffffffff
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32
  let chunk_start = 1
  let chunk_end = 2
  let parent = 4
  let root = 8
  let keyed_hash = 16
  let derive_key_context = 32
  let derive_key_material = 64
  let iv = Sha2_constants.h256
  let msg_permutation = [| 2; 6; 3; 10; 7; 0; 4; 13; 1; 11; 12; 5; 9; 14; 15; 8 |]

  let g v a b c d mx my =
    v.(a) <- (v.(a) + v.(b) + mx) land mask32;
    v.(d) <- rotr (v.(d) lxor v.(a)) 16;
    v.(c) <- (v.(c) + v.(d)) land mask32;
    v.(b) <- rotr (v.(b) lxor v.(c)) 12;
    v.(a) <- (v.(a) + v.(b) + my) land mask32;
    v.(d) <- rotr (v.(d) lxor v.(a)) 8;
    v.(c) <- (v.(c) + v.(d)) land mask32;
    v.(b) <- rotr (v.(b) lxor v.(c)) 7

  let round v m =
    g v 0 4 8 12 m.(0) m.(1);
    g v 1 5 9 13 m.(2) m.(3);
    g v 2 6 10 14 m.(4) m.(5);
    g v 3 7 11 15 m.(6) m.(7);
    g v 0 5 10 15 m.(8) m.(9);
    g v 1 6 11 12 m.(10) m.(11);
    g v 2 7 8 13 m.(12) m.(13);
    g v 3 4 9 14 m.(14) m.(15)

  let permute m =
    let orig = Array.copy m in
    for i = 0 to 15 do
      m.(i) <- orig.(msg_permutation.(i))
    done

  let compress ~cv ~block_words ~counter ~block_len ~flags =
    let v = Array.make 16 0 in
    Array.blit cv 0 v 0 8;
    Array.blit iv 0 v 8 4;
    v.(12) <- Int64.to_int (Int64.logand counter 0xffffffffL);
    v.(13) <- Int64.to_int (Int64.logand (Int64.shift_right_logical counter 32) 0xffffffffL);
    v.(14) <- block_len;
    v.(15) <- flags;
    let m = Array.copy block_words in
    for r = 0 to 6 do
      round v m;
      if r < 6 then permute m
    done;
    for i = 0 to 7 do
      v.(i) <- v.(i) lxor v.(i + 8);
      v.(i + 8) <- v.(i + 8) lxor cv.(i)
    done;
    v

  let words_of_block s off len =
    Array.init 16 (fun i ->
        let w = ref 0 in
        for j = 3 downto 0 do
          w := (!w lsl 8) lor if (4 * i) + j < len then Char.code s.[off + (4 * i) + j] else 0
        done;
        !w)

  type output = { cv : int array; block_words : int array; counter : int64; block_len : int; flags : int }

  let chaining_value o =
    Array.sub
      (compress ~cv:o.cv ~block_words:o.block_words ~counter:o.counter ~block_len:o.block_len
         ~flags:o.flags)
      0 8

  let root_output_bytes o length =
    String.concat ""
      (List.init ((length + 63) / 64) (fun t ->
           let v =
             compress ~cv:o.cv ~block_words:o.block_words ~counter:(Int64.of_int t)
               ~block_len:o.block_len ~flags:(o.flags lor root)
           in
           String.init (min 64 (length - (64 * t))) (fun i ->
               Char.chr ((v.(i / 4) lsr (8 * (i mod 4))) land 0xff))))

  let chunk_output ~key_words ~flags ~chunk_counter input off len =
    let nblocks = max 1 ((len + 63) / 64) in
    let cv = ref key_words in
    for b = 0 to nblocks - 2 do
      cv :=
        Array.sub
          (compress ~cv:!cv
             ~block_words:(words_of_block input (off + (64 * b)) 64)
             ~counter:chunk_counter ~block_len:64
             ~flags:(flags lor if b = 0 then chunk_start else 0))
          0 8
    done;
    let b = nblocks - 1 in
    let blen = len - (64 * b) in
    {
      cv = !cv;
      block_words = words_of_block input (off + (64 * b)) blen;
      counter = chunk_counter;
      block_len = blen;
      flags = flags lor chunk_end lor if b = 0 then chunk_start else 0;
    }

  let parent_output ~key_words ~flags l r =
    { cv = key_words; block_words = Array.append l r; counter = 0L; block_len = 64; flags = flags lor parent }

  let rec subtree_output ~key_words ~flags input off len ~chunk_counter =
    if len <= 1024 then chunk_output ~key_words ~flags ~chunk_counter input off len
    else begin
      let chunks = (len + 1023) / 1024 in
      let rec pow2 p = if 2 * p >= chunks then p else pow2 (2 * p) in
      let left = pow2 1 * 1024 in
      let l = subtree_output ~key_words ~flags input off left ~chunk_counter in
      let r =
        subtree_output ~key_words ~flags input (off + left) (len - left)
          ~chunk_counter:(Int64.add chunk_counter (Int64.of_int (left / 1024)))
      in
      parent_output ~key_words ~flags (chaining_value l) (chaining_value r)
    end

  let hash_internal ~key_words ~flags ~length input =
    root_output_bytes
      (subtree_output ~key_words ~flags input 0 (String.length input) ~chunk_counter:0L)
      length

  let key_words key =
    Array.init 8 (fun i -> Int32.to_int (Bytesutil.get_u32_le key (4 * i)) land mask32)

  let digest ?(length = 32) msg = hash_internal ~key_words:iv ~flags:0 ~length msg

  let keyed ~key ?(length = 32) msg =
    hash_internal ~key_words:(key_words key) ~flags:keyed_hash ~length msg

  let derive_key ~context ?(length = 32) material =
    let context_key = hash_internal ~key_words:iv ~flags:derive_key_context ~length:32 context in
    hash_internal ~key_words:(key_words context_key) ~flags:derive_key_material ~length material
end

module Hash = struct
  let pad_tagged s n =
    let len = String.length s in
    s ^ String.make (n - 1 - len) '\x00' ^ String.make 1 (Char.chr len)

  let haraka_any s =
    let len = String.length s in
    if len = 32 then Haraka.haraka256 s
    else if len = 64 then Haraka.haraka512 s
    else if len < 32 then Haraka.haraka256 (pad_tagged s 32)
    else if len < 64 then Haraka.haraka512 (pad_tagged s 64)
    else begin
      let acc = ref (String.make 32 '\x00') in
      List.iter
        (fun chunk ->
          let chunk = if String.length chunk = 32 then chunk else pad_tagged chunk 32 in
          acc := Haraka.haraka512 (!acc ^ chunk))
        (Bytesutil.chunks 32 s);
      Haraka.haraka512 (!acc ^ pad_tagged (Bytesutil.u64_le (Int64.of_int len)) 32)
    end

  let base_digest (algo : Dsig_hashes.Hash.algo) s =
    match algo with Sha256 -> Sha256.digest s | Blake3 -> Blake3.digest s | Haraka -> haraka_any s

  let digest (algo : Dsig_hashes.Hash.algo) ?(length = 32) s =
    match algo with
    | Blake3 -> Blake3.digest ~length s
    | Sha256 | Haraka ->
        let d = base_digest algo s in
        if length <= 32 then String.sub d 0 length
        else
          let blocks =
            List.init ((length + 31) / 32) (fun i ->
                base_digest algo (d ^ Bytesutil.u32_le (Int32.of_int i)))
          in
          String.sub (String.concat "" blocks) 0 length
end

module Wots = struct
  module P = Dsig_hbss.Params.Wots

  let mask ~n public_seed j =
    Blake3.keyed ~key:public_seed ~length:n ("wots-mask" ^ Bytesutil.u32_le (Int32.of_int j))

  let chain ~hash ~n ~public_seed ~from ~upto x =
    let v = ref x in
    for j = from + 1 to upto do
      v := Hash.digest hash ~length:n (Bytesutil.xor !v (mask ~n public_seed j))
    done;
    !v

  let digits (p : P.t) ~public_seed ~nonce msg =
    let width = Dsig_hbss.Params.log2_exact p.P.d in
    let length = max 16 (((p.P.l1 * width) + 7) / 8) in
    let digest = Blake3.digest ~length (public_seed ^ nonce ^ msg) in
    let msg_digits = Dsig_hbss.Bits.digits digest ~width ~count:p.P.l1 in
    let checksum = Array.fold_left (fun acc m -> acc + (p.P.d - 1 - m)) 0 msg_digits in
    Array.append msg_digits
      (Array.init p.P.l2 (fun i -> (checksum lsr (width * (p.P.l2 - 1 - i))) land (p.P.d - 1)))

  let public_seed seed = Blake3.derive_key ~context:"dsig wots public seed" seed

  let secrets (p : P.t) seed =
    let blob = Blake3.derive_key ~context:"dsig wots secrets" ~length:(p.P.l * p.P.n) seed in
    Array.init p.P.l (fun i -> String.sub blob (i * p.P.n) p.P.n)

  let pk_digest public_seed publics =
    Blake3.digest (String.concat "" (public_seed :: Array.to_list publics))

  let public_key_digest ?(hash = Dsig_hashes.Hash.Haraka) (p : P.t) ~seed =
    let public_seed = public_seed seed in
    pk_digest public_seed
      (Array.map
         (chain ~hash ~n:p.P.n ~public_seed ~from:0 ~upto:(p.P.d - 1))
         (secrets p seed))

  (* Signing without the chain cache: walk each secret up to its digit. *)
  let sign ?(hash = Dsig_hashes.Hash.Haraka) (p : P.t) ~seed ~nonce msg =
    let public_seed = public_seed seed in
    let digits = digits p ~public_seed ~nonce msg in
    Array.mapi
      (fun i s -> chain ~hash ~n:p.P.n ~public_seed ~from:0 ~upto:digits.(i) s)
      (secrets p seed)

  let recover_public_elements ?(hash = Dsig_hashes.Hash.Haraka) (p : P.t) ~public_seed ~nonce
      elements msg =
    let digits = digits p ~public_seed ~nonce msg in
    Array.mapi
      (fun i e -> chain ~hash ~n:p.P.n ~public_seed ~from:digits.(i) ~upto:(p.P.d - 1) e)
      elements
end
