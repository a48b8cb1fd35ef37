let digest_size = 32
let mask32 = 0xffffffff
let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

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

(* One work array per hash call holds everything the compression
   touches, so hashing allocates nothing per block:
   - words 0..7: the chaining value;
   - words 8..23: the message block;
   - words 24..39: one 64-byte block of root output;
   - words 40..42: the pending output node's counter, block length and
     flags;
   - words 43..: the chaining-value stack of a multi-chunk input, 8
     words a level. *)
let msg_at = 8
let out_at = 24
let node_counter = 40
let node_len = 41
let node_flags = 42
let stack_at = 43

(* Round r takes message word i from w.(schedule.(16r + i)): the message
   permutation applied r times, precomputed once and offset to the
   message block, so rounds index the block directly instead of
   permuting a copy between rounds. *)
let schedule =
  let s = Array.init 112 (fun i -> i) in
  for r = 1 to 6 do
    for i = 0 to 15 do
      s.((16 * r) + i) <- s.((16 * (r - 1)) + msg_permutation.(i))
    done
  done;
  Array.map (fun i -> msg_at + i) s

let[@inline] msg w s k = Array.unsafe_get w (Array.unsafe_get schedule (s + k))

(* Compress the chaining value w.(0..7) with the message block
   w.(8..23). The state lives in sixteen local variables; each round
   writes out its eight G calls. With [~root_out:false] the new chaining
   value replaces w.(0..7); with [~root_out:true] the full 16-word
   output goes to w.(24..39) and the chaining value is kept, so the
   next output block can be compressed from it. *)
let compress w ~counter ~block_len ~flags ~root_out =
  let v0 = ref w.(0) and v1 = ref w.(1) and v2 = ref w.(2) and v3 = ref w.(3) in
  let v4 = ref w.(4) and v5 = ref w.(5) and v6 = ref w.(6) and v7 = ref w.(7) in
  let v8 = ref iv.(0) and v9 = ref iv.(1) and v10 = ref iv.(2) and v11 = ref iv.(3) in
  let v12 = ref (counter land mask32) and v13 = ref ((counter lsr 32) land mask32) in
  let v14 = ref block_len and v15 = ref flags in
  for r = 0 to 6 do
    let s = 16 * r in
    (* columns *)
    v0 := (!v0 + !v4 + msg w s 0) land mask32;
    v12 := rotr (!v12 lxor !v0) 16;
    v8 := (!v8 + !v12) land mask32;
    v4 := rotr (!v4 lxor !v8) 12;
    v0 := (!v0 + !v4 + msg w s 1) land mask32;
    v12 := rotr (!v12 lxor !v0) 8;
    v8 := (!v8 + !v12) land mask32;
    v4 := rotr (!v4 lxor !v8) 7;
    v1 := (!v1 + !v5 + msg w s 2) land mask32;
    v13 := rotr (!v13 lxor !v1) 16;
    v9 := (!v9 + !v13) land mask32;
    v5 := rotr (!v5 lxor !v9) 12;
    v1 := (!v1 + !v5 + msg w s 3) land mask32;
    v13 := rotr (!v13 lxor !v1) 8;
    v9 := (!v9 + !v13) land mask32;
    v5 := rotr (!v5 lxor !v9) 7;
    v2 := (!v2 + !v6 + msg w s 4) land mask32;
    v14 := rotr (!v14 lxor !v2) 16;
    v10 := (!v10 + !v14) land mask32;
    v6 := rotr (!v6 lxor !v10) 12;
    v2 := (!v2 + !v6 + msg w s 5) land mask32;
    v14 := rotr (!v14 lxor !v2) 8;
    v10 := (!v10 + !v14) land mask32;
    v6 := rotr (!v6 lxor !v10) 7;
    v3 := (!v3 + !v7 + msg w s 6) land mask32;
    v15 := rotr (!v15 lxor !v3) 16;
    v11 := (!v11 + !v15) land mask32;
    v7 := rotr (!v7 lxor !v11) 12;
    v3 := (!v3 + !v7 + msg w s 7) land mask32;
    v15 := rotr (!v15 lxor !v3) 8;
    v11 := (!v11 + !v15) land mask32;
    v7 := rotr (!v7 lxor !v11) 7;
    (* diagonals *)
    v0 := (!v0 + !v5 + msg w s 8) land mask32;
    v15 := rotr (!v15 lxor !v0) 16;
    v10 := (!v10 + !v15) land mask32;
    v5 := rotr (!v5 lxor !v10) 12;
    v0 := (!v0 + !v5 + msg w s 9) land mask32;
    v15 := rotr (!v15 lxor !v0) 8;
    v10 := (!v10 + !v15) land mask32;
    v5 := rotr (!v5 lxor !v10) 7;
    v1 := (!v1 + !v6 + msg w s 10) land mask32;
    v12 := rotr (!v12 lxor !v1) 16;
    v11 := (!v11 + !v12) land mask32;
    v6 := rotr (!v6 lxor !v11) 12;
    v1 := (!v1 + !v6 + msg w s 11) land mask32;
    v12 := rotr (!v12 lxor !v1) 8;
    v11 := (!v11 + !v12) land mask32;
    v6 := rotr (!v6 lxor !v11) 7;
    v2 := (!v2 + !v7 + msg w s 12) land mask32;
    v13 := rotr (!v13 lxor !v2) 16;
    v8 := (!v8 + !v13) land mask32;
    v7 := rotr (!v7 lxor !v8) 12;
    v2 := (!v2 + !v7 + msg w s 13) land mask32;
    v13 := rotr (!v13 lxor !v2) 8;
    v8 := (!v8 + !v13) land mask32;
    v7 := rotr (!v7 lxor !v8) 7;
    v3 := (!v3 + !v4 + msg w s 14) land mask32;
    v14 := rotr (!v14 lxor !v3) 16;
    v9 := (!v9 + !v14) land mask32;
    v4 := rotr (!v4 lxor !v9) 12;
    v3 := (!v3 + !v4 + msg w s 15) land mask32;
    v14 := rotr (!v14 lxor !v3) 8;
    v9 := (!v9 + !v14) land mask32;
    v4 := rotr (!v4 lxor !v9) 7
  done;
  if root_out then begin
    w.(24) <- !v0 lxor !v8;
    w.(25) <- !v1 lxor !v9;
    w.(26) <- !v2 lxor !v10;
    w.(27) <- !v3 lxor !v11;
    w.(28) <- !v4 lxor !v12;
    w.(29) <- !v5 lxor !v13;
    w.(30) <- !v6 lxor !v14;
    w.(31) <- !v7 lxor !v15;
    w.(32) <- !v8 lxor w.(0);
    w.(33) <- !v9 lxor w.(1);
    w.(34) <- !v10 lxor w.(2);
    w.(35) <- !v11 lxor w.(3);
    w.(36) <- !v12 lxor w.(4);
    w.(37) <- !v13 lxor w.(5);
    w.(38) <- !v14 lxor w.(6);
    w.(39) <- !v15 lxor w.(7)
  end
  else begin
    w.(0) <- !v0 lxor !v8;
    w.(1) <- !v1 lxor !v9;
    w.(2) <- !v2 lxor !v10;
    w.(3) <- !v3 lxor !v11;
    w.(4) <- !v4 lxor !v12;
    w.(5) <- !v5 lxor !v13;
    w.(6) <- !v6 lxor !v14;
    w.(7) <- !v7 lxor !v15
  end

(* Load [len] (at most 64) bytes of [src] at [off] into the message
   block, zero-padded: whole words with one little-endian read each. *)
let load_block w src off len =
  if len = 64 then
    for i = 0 to 15 do
      w.(msg_at + i) <- Int32.to_int (Bytes.get_int32_le src (off + (4 * i))) land mask32
    done
  else begin
    Array.fill w msg_at 16 0;
    for i = 0 to len - 1 do
      let k = msg_at + (i lsr 2) in
      w.(k) <- w.(k) lor (Char.code (Bytes.get src (off + i)) lsl (8 * (i land 3)))
    done
  end

(* Make w an output node: chaining value, block, counter, length and
   flags of a compression not yet run. *)
let set_node w ~counter ~block_len ~flags =
  w.(node_counter) <- counter;
  w.(node_len) <- block_len;
  w.(node_flags) <- flags

(* Compress the pending output node to its chaining value in w.(0..7). *)
let node_cv w =
  compress w ~counter:w.(node_counter) ~block_len:w.(node_len) ~flags:w.(node_flags)
    ~root_out:false

(* Make w the parent node of the chaining value left.(off .. off+7) and
   the one in w.(0..7). *)
let parent_node w ~key ~flags left off =
  Array.blit w 0 w (msg_at + 8) 8;
  Array.blit left off w msg_at 8;
  Array.blit key 0 w 0 8;
  set_node w ~counter:0 ~block_len:64 ~flags:(flags lor parent)

(* Load one chunk of [len] bytes (1..1024, or 0 for the empty input) and
   compress all but its last block, leaving the chunk's output node in
   w. *)
let chunk_node w ~key ~flags ~counter src off len =
  Array.blit key 0 w 0 8;
  let nblocks = max 1 ((len + 63) / 64) in
  for b = 0 to nblocks - 2 do
    load_block w src (off + (64 * b)) 64;
    compress w ~counter ~block_len:64
      ~flags:(flags lor if b = 0 then chunk_start else 0)
      ~root_out:false
  done;
  let last = 64 * (nblocks - 1) in
  load_block w src (off + last) (len - last);
  set_node w ~counter ~block_len:(len - last)
    ~flags:(flags lor chunk_end lor if nblocks = 1 then chunk_start else 0)

(* Write [length] bytes of root output, from the output node in w, to
   [dst] at [doff]: whole words with one little-endian write each. *)
let root_output w dst doff length =
  let block = ref 0 in
  while 64 * !block < length do
    compress w ~counter:!block ~block_len:w.(node_len) ~flags:(w.(node_flags) lor root)
      ~root_out:true;
    let pos = 64 * !block in
    let take = min 64 (length - pos) in
    for i = 0 to (take / 4) - 1 do
      Bytes.set_int32_le dst (doff + pos + (4 * i)) (Int32.of_int w.(out_at + i))
    done;
    for i = take land lnot 3 to take - 1 do
      Bytes.unsafe_set dst (doff + pos + i)
        (Char.unsafe_chr ((w.(out_at + (i lsr 2)) lsr (8 * (i land 3))) land 0xff))
    done;
    incr block
  done

let bit_length n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* The whole tree of [len] bytes of [src] at [off], one chunk at a time:
   each completed chunk's chaining value is merged with the stack once
   per trailing zero bit of the completed-chunk count (spec §5.1.2), and
   the last chunk's output node is folded with what remains. *)
let hash_into ~key ~flags ~length src off len dst doff =
  if length < 0 then invalid_arg "Blake3: negative output length";
  let chunks = max 1 ((len + 1023) / 1024) in
  let w = Array.make (stack_at + (8 * bit_length (chunks - 1))) 0 in
  let sp = ref 0 in
  for c = 0 to chunks - 2 do
    chunk_node w ~key ~flags ~counter:c src (off + (1024 * c)) 1024;
    node_cv w;
    let total = ref (c + 1) in
    while !total land 1 = 0 do
      decr sp;
      parent_node w ~key ~flags w (stack_at + (8 * !sp));
      node_cv w;
      total := !total lsr 1
    done;
    Array.blit w 0 w (stack_at + (8 * !sp)) 8;
    incr sp
  done;
  let last = 1024 * (chunks - 1) in
  chunk_node w ~key ~flags ~counter:(chunks - 1) src (off + last) (len - last);
  while !sp > 0 do
    node_cv w;
    decr sp;
    parent_node w ~key ~flags w (stack_at + (8 * !sp))
  done;
  root_output w dst doff length

let hash ~key ~flags ~length input =
  let out = Bytes.create length in
  hash_into ~key ~flags ~length (Bytes.unsafe_of_string input) 0 (String.length input) out 0;
  Bytes.unsafe_to_string out

let key_words_of_string key =
  if String.length key <> 32 then invalid_arg "Blake3: key must be 32 bytes";
  Array.init 8 (fun i -> Int32.to_int (String.get_int32_le key (4 * i)) land mask32)

let digest ?(length = 32) msg = hash ~key:iv ~flags:0 ~length msg

let digest_into ?(length = 32) src ~off ~len dst ~dst_off =
  if off < 0 || len < 0 || off > Bytes.length src - len then
    invalid_arg "Blake3.digest_into: input out of range";
  if length < 0 || dst_off < 0 || dst_off > Bytes.length dst - length then
    invalid_arg "Blake3.digest_into: output out of range";
  hash_into ~key:iv ~flags:0 ~length src off len dst dst_off

let keyed ~key ?(length = 32) msg = hash ~key:(key_words_of_string key) ~flags:keyed_hash ~length msg

let derive_key ~context ?(length = 32) material =
  let context_key = hash ~key:iv ~flags:derive_key_context ~length:32 context in
  hash ~key:(key_words_of_string context_key) ~flags:derive_key_material ~length material

let hex msg = Dsig_util.Bytesutil.to_hex (digest msg)

(* --- incremental hashing (spec §5.1.2 reference structure) --- *)

module Incremental = struct
  type t = {
    key : int array;
    flags : int;
    w : int array; (* w.(0..7): the current chunk's chaining value *)
    block : Bytes.t; (* the buffered block, compressed once more input arrives *)
    mutable block_len : int;
    mutable blocks : int; (* blocks compressed in the current chunk *)
    mutable chunks : int; (* chunks completed *)
    mutable stack : int array list; (* subtree chaining values, most recent first *)
    mutable finalized : bool;
  }

  let create ?key () =
    let key, flags =
      match key with None -> (iv, 0) | Some k -> (key_words_of_string k, keyed_hash)
    in
    let w = Array.make stack_at 0 in
    Array.blit key 0 w 0 8;
    {
      key;
      flags;
      w;
      block = Bytes.make 64 '\x00';
      block_len = 0;
      blocks = 0;
      chunks = 0;
      stack = [];
      finalized = false;
    }

  let block_flags t = t.flags lor if t.blocks = 0 then chunk_start else 0

  (* close the current chunk (its buffered block is full) and merge its
     chaining value into the stack *)
  let finish_chunk t =
    load_block t.w t.block 0 64;
    compress t.w ~counter:t.chunks ~block_len:64 ~flags:(block_flags t lor chunk_end)
      ~root_out:false;
    t.chunks <- t.chunks + 1;
    let total = ref t.chunks in
    while !total land 1 = 0 do
      (match t.stack with
      | left :: rest ->
          parent_node t.w ~key:t.key ~flags:t.flags left 0;
          node_cv t.w;
          t.stack <- rest
      | [] -> assert false);
      total := !total lsr 1
    done;
    t.stack <- Array.sub t.w 0 8 :: t.stack;
    Array.blit t.key 0 t.w 0 8;
    t.blocks <- 0;
    t.block_len <- 0

  let feed t s =
    if t.finalized then invalid_arg "Blake3.Incremental.feed: finalized";
    let len = String.length s in
    let pos = ref 0 in
    while !pos < len do
      (* a full buffered block is compressed only once more input
         exists, so the final block stays pending *)
      if t.block_len = 64 then begin
        if t.blocks = 15 then finish_chunk t
        else begin
          load_block t.w t.block 0 64;
          compress t.w ~counter:t.chunks ~block_len:64 ~flags:(block_flags t) ~root_out:false;
          t.blocks <- t.blocks + 1;
          t.block_len <- 0
        end
      end;
      let take = min (64 - t.block_len) (len - !pos) in
      Bytes.blit_string s !pos t.block t.block_len take;
      t.block_len <- t.block_len + take;
      pos := !pos + take
    done

  let finalize ?(length = 32) t =
    if t.finalized then invalid_arg "Blake3.Incremental.finalize: already finalized";
    t.finalized <- true;
    load_block t.w t.block 0 t.block_len;
    set_node t.w ~counter:t.chunks ~block_len:t.block_len ~flags:(block_flags t lor chunk_end);
    List.iter
      (fun left ->
        node_cv t.w;
        parent_node t.w ~key:t.key ~flags:t.flags left 0)
      t.stack;
    let out = Bytes.create length in
    root_output t.w out 0 length;
    Bytes.unsafe_to_string out
end
