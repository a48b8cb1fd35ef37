let digest_size = 32
let mask32 = 0xffffffff
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* Domain flags (spec table 3). *)
let chunk_start = 1
let chunk_end = 2
let parent = 4
let root = 8
let keyed_hash = 16
let derive_key_context = 32
let derive_key_material = 64

let iv = Sha2_constants.h256 (* BLAKE3 IV = SHA-256 IV *)
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

(* Round r takes message word i from block word schedule.(16r + i): the
   message permutation applied r times, precomputed once so rounds index
   the block directly instead of permuting a copy between rounds. *)
let schedule =
  let s = Array.init 112 (fun i -> i) in
  for r = 1 to 6 do
    for i = 0 to 15 do
      s.((16 * r) + i) <- s.((16 * (r - 1)) + msg_permutation.(i))
    done
  done;
  s

let round v m r =
  let s = 16 * r in
  (* columns *)
  g v 0 4 8 12 m.(schedule.(s)) m.(schedule.(s + 1));
  g v 1 5 9 13 m.(schedule.(s + 2)) m.(schedule.(s + 3));
  g v 2 6 10 14 m.(schedule.(s + 4)) m.(schedule.(s + 5));
  g v 3 7 11 15 m.(schedule.(s + 6)) m.(schedule.(s + 7));
  (* diagonals *)
  g v 0 5 10 15 m.(schedule.(s + 8)) m.(schedule.(s + 9));
  g v 1 6 11 12 m.(schedule.(s + 10)) m.(schedule.(s + 11));
  g v 2 7 8 13 m.(schedule.(s + 12)) m.(schedule.(s + 13));
  g v 3 4 9 14 m.(schedule.(s + 14)) m.(schedule.(s + 15))

(* compress returns the full 16-word state output. *)
let compress ~cv ~block_words ~counter ~block_len ~flags =
  let v = Array.make 16 0 in
  Array.blit cv 0 v 0 8;
  Array.blit iv 0 v 8 4;
  v.(12) <- Int64.to_int (Int64.logand counter 0xffffffffL);
  v.(13) <- Int64.to_int (Int64.logand (Int64.shift_right_logical counter 32) 0xffffffffL);
  v.(14) <- block_len;
  v.(15) <- flags;
  for r = 0 to 6 do
    round v block_words r
  done;
  for i = 0 to 7 do
    v.(i) <- v.(i) lxor v.(i + 8);
    v.(i + 8) <- v.(i + 8) lxor cv.(i)
  done;
  v

let words_of_block s off len =
  let m = Array.make 16 0 in
  for i = 0 to 15 do
    let w = ref 0 in
    for j = 3 downto 0 do
      let idx = off + (4 * i) + j in
      w := (!w lsl 8) lor (if (4 * i) + j < len then Char.code s.[idx] else 0)
    done;
    m.(i) <- !w
  done;
  m

(* An "output node": the final compression input of a chunk or parent,
   kept uncompressed so the ROOT flag and output counter can be applied
   when it turns out to be the root (spec §2.6). *)
type output = { cv : int array; block_words : int array; counter : int64; block_len : int; flags : int }

let chaining_value (o : output) =
  let v =
    compress ~cv:o.cv ~block_words:o.block_words ~counter:o.counter ~block_len:o.block_len
      ~flags:o.flags
  in
  Array.sub v 0 8

let root_output_bytes (o : output) length =
  let out = Bytes.create length in
  let pos = ref 0 and t = ref 0L in
  while !pos < length do
    let v =
      compress ~cv:o.cv ~block_words:o.block_words ~counter:!t ~block_len:o.block_len
        ~flags:(o.flags lor root)
    in
    let take = min 64 (length - !pos) in
    for i = 0 to take - 1 do
      Bytes.set out (!pos + i) (Char.chr ((v.(i / 4) lsr (8 * (i mod 4))) land 0xff))
    done;
    pos := !pos + take;
    t := Int64.add !t 1L
  done;
  Bytes.unsafe_to_string out

(* Compress a whole 1024-byte-max chunk down to its output node. *)
let chunk_output ~key_words ~flags ~chunk_counter input off len =
  let nblocks = max 1 ((len + 63) / 64) in
  let cv = ref (Array.copy key_words) in
  let last = ref None in
  for b = 0 to nblocks - 1 do
    let boff = off + (64 * b) in
    let blen = min 64 (len - (64 * b)) in
    let bflags =
      flags
      lor (if b = 0 then chunk_start else 0)
      lor if b = nblocks - 1 then chunk_end else 0
    in
    let block_words = words_of_block input boff blen in
    if b = nblocks - 1 then
      last := Some { cv = !cv; block_words; counter = chunk_counter; block_len = blen; flags = bflags }
    else
      cv :=
        Array.sub
          (compress ~cv:!cv ~block_words ~counter:chunk_counter ~block_len:blen ~flags:bflags)
          0 8
  done;
  match !last with Some o -> o | None -> assert false

let parent_output ~key_words ~flags left_cv right_cv =
  let block_words = Array.make 16 0 in
  Array.blit left_cv 0 block_words 0 8;
  Array.blit right_cv 0 block_words 8 8;
  { cv = Array.copy key_words; block_words; counter = 0L; block_len = 64; flags = flags lor parent }

(* Largest power of two strictly less than n (n >= 2). *)
let left_chunks n =
  let rec go p = if 2 * p >= n then p else go (2 * p) in
  go 1

let rec subtree_output ~key_words ~flags input off len ~chunk_counter =
  if len <= 1024 then chunk_output ~key_words ~flags ~chunk_counter input off len
  else begin
    let chunks = (len + 1023) / 1024 in
    let left = left_chunks chunks * 1024 in
    let l = subtree_output ~key_words ~flags input off left ~chunk_counter in
    let r =
      subtree_output ~key_words ~flags input (off + left) (len - left)
        ~chunk_counter:(Int64.add chunk_counter (Int64.of_int (left / 1024)))
    in
    parent_output ~key_words ~flags (chaining_value l) (chaining_value r)
  end

let hash_internal ~key_words ~flags ~length input =
  let o = subtree_output ~key_words ~flags input 0 (String.length input) ~chunk_counter:0L in
  root_output_bytes o length

let key_words_of_string key =
  if String.length key <> 32 then invalid_arg "Blake3: key must be 32 bytes";
  Array.init 8 (fun i -> Int32.to_int (Dsig_util.Bytesutil.get_u32_le key (4 * i)) land mask32)

let digest ?(length = 32) msg = hash_internal ~key_words:iv ~flags:0 ~length msg

let keyed ~key ?(length = 32) msg =
  hash_internal ~key_words:(key_words_of_string key) ~flags:keyed_hash ~length msg

let derive_key ~context ?(length = 32) material =
  let context_key =
    hash_internal ~key_words:iv ~flags:derive_key_context ~length:32 context
  in
  hash_internal ~key_words:(key_words_of_string context_key) ~flags:derive_key_material ~length
    material

let hex msg = Dsig_util.Bytesutil.to_hex (digest msg)

(* --- incremental hashing (spec §5.1.2 reference structure) --- *)

module Incremental = struct
  type chunk_state = {
    mutable cv : int array;
    mutable chunk_counter : int64;
    block : Bytes.t; (* 64-byte block buffer *)
    mutable block_len : int;
    mutable blocks_compressed : int;
  }

  type t = {
    key_words : int array;
    base_flags : int;
    mutable chunk : chunk_state;
    mutable cv_stack : int array list; (* subtree CVs, deepest first *)
    mutable total_chunks : int64;
    mutable finalized : bool;
  }

  let fresh_chunk key_words counter =
    {
      cv = Array.copy key_words;
      chunk_counter = counter;
      block = Bytes.make 64 '\x00';
      block_len = 0;
      blocks_compressed = 0;
    }

  let create ?key () =
    let key_words, base_flags =
      match key with None -> (iv, 0) | Some k -> (key_words_of_string k, keyed_hash)
    in
    {
      key_words;
      base_flags;
      chunk = fresh_chunk key_words 0L;
      cv_stack = [];
      total_chunks = 0L;
      finalized = false;
    }

  let chunk_start_flag c = if c.blocks_compressed = 0 then chunk_start else 0

  (* compress the buffered (full) block as a non-final block *)
  let compress_block t =
    let c = t.chunk in
    let words = words_of_block (Bytes.unsafe_to_string c.block) 0 64 in
    c.cv <-
      Array.sub
        (compress ~cv:c.cv ~block_words:words ~counter:c.chunk_counter ~block_len:64
           ~flags:(t.base_flags lor chunk_start_flag c))
        0 8;
    c.blocks_compressed <- c.blocks_compressed + 1;
    c.block_len <- 0

  (* the completed chunk's chaining value (with CHUNK_END) *)
  let chunk_cv t =
    let c = t.chunk in
    let words = words_of_block (Bytes.unsafe_to_string c.block) 0 c.block_len in
    Array.sub
      (compress ~cv:c.cv ~block_words:words ~counter:c.chunk_counter ~block_len:c.block_len
         ~flags:(t.base_flags lor chunk_start_flag c lor chunk_end))
      0 8

  let parent_cv t left right =
    let o = parent_output ~key_words:t.key_words ~flags:t.base_flags left right in
    chaining_value o

  (* merge a completed chunk's CV into the stack: one merge per trailing
     zero bit of the completed-chunk count *)
  let add_chunk_cv t cv =
    t.total_chunks <- Int64.add t.total_chunks 1L;
    let new_cv = ref cv in
    let n = ref t.total_chunks in
    while Int64.logand !n 1L = 0L do
      (match t.cv_stack with
      | top :: rest ->
          new_cv := parent_cv t top !new_cv;
          t.cv_stack <- rest
      | [] -> assert false);
      n := Int64.shift_right_logical !n 1
    done;
    t.cv_stack <- !new_cv :: t.cv_stack

  let feed t s =
    if t.finalized then invalid_arg "Blake3.Incremental.feed: finalized";
    let len = String.length s in
    let pos = ref 0 in
    while !pos < len do
      let c = t.chunk in
      (* chunk full (16 blocks compressed would be 1024 bytes): roll over
         only when more input exists, so the final chunk stays pending *)
      if c.blocks_compressed = 15 && c.block_len = 64 then begin
        let cv = chunk_cv t in
        add_chunk_cv t cv;
        t.chunk <- fresh_chunk t.key_words (Int64.add c.chunk_counter 1L)
      end
      else begin
        if c.block_len = 64 then compress_block t;
        let take = min (64 - t.chunk.block_len) (len - !pos) in
        Bytes.blit_string s !pos t.chunk.block t.chunk.block_len take;
        t.chunk.block_len <- t.chunk.block_len + take;
        pos := !pos + take
      end
    done

  let finalize ?(length = 32) t =
    if t.finalized then invalid_arg "Blake3.Incremental.finalize: already finalized";
    t.finalized <- true;
    let c = t.chunk in
    let words = words_of_block (Bytes.unsafe_to_string c.block) 0 c.block_len in
    let o =
      ref
        {
          cv = c.cv;
          block_words = words;
          counter = c.chunk_counter;
          block_len = c.block_len;
          flags = t.base_flags lor chunk_start_flag c lor chunk_end;
        }
    in
    List.iter
      (fun left ->
        o := parent_output ~key_words:t.key_words ~flags:t.base_flags left (chaining_value !o))
      t.cv_stack;
    root_output_bytes !o length
end
