module Blake3 = Dsig_hashes.Blake3

type t = {
  n : int; (* original (unpadded) leaf count *)
  levels : string array array; (* levels.(0) = padded leaf digests, last = [| root |] *)
}

let leaf_tag = "\x00"
let node_tag = '\x01'

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

(* The leaf array is padded to a power of two with a fixed padding
   digest so that every proof has exactly log2(size) siblings and
   verification needs no side information. *)
let padding_digest = String.make 32 '\x00'

let leaf_hash leaf = Blake3.digest (leaf_tag ^ leaf)

(* A node's input, the tag and two 32-byte children, in one 65-byte
   scratch buffer per tree walk: the children are blitted into
   bytes 1..32 and 33..64, and a digest can be written back over either
   half. *)
let scratch () =
  let b = Bytes.create 65 in
  Bytes.set b 0 node_tag;
  b

let node_hash buf a b =
  Bytes.blit_string a 0 buf 1 32;
  Bytes.blit_string b 0 buf 33 32;
  let out = Bytes.create 32 in
  Blake3.digest_into buf ~off:0 ~len:65 out ~dst_off:0;
  Bytes.unsafe_to_string out

let build leaves =
  let n = Array.length leaves in
  if n = 0 then invalid_arg "Merkle.build: empty";
  let padded = next_pow2 n in
  let level0 = Array.init padded (fun i -> if i < n then leaf_hash leaves.(i) else padding_digest) in
  let buf = scratch () in
  let rec up acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else begin
      let next =
        Array.init (Array.length level / 2) (fun i -> node_hash buf level.(2 * i) level.((2 * i) + 1))
      in
      up (level :: acc) next
    end
  in
  { n; levels = Array.of_list (up [] level0) }

let root t = t.levels.(Array.length t.levels - 1).(0)
let size t = t.n
let leaf_digest t i = t.levels.(0).(i)

type proof = { index : int; siblings : string list }

let proof t i =
  if i < 0 || i >= size t then invalid_arg "Merkle.proof: index out of range";
  let siblings = ref [] in
  let idx = ref i in
  for l = 0 to Array.length t.levels - 2 do
    siblings := t.levels.(l).(!idx lxor 1) :: !siblings;
    idx := !idx / 2
  done;
  { index = i; siblings = List.rev !siblings }

let proof_size_bytes ~leaves =
  let rec levels n acc = if n <= 1 then acc else levels (n / 2) (acc + 1) in
  4 + (32 * levels (next_pow2 leaves) 0)

(* The fold keeps the running digest inside the scratch buffer: at each
   level the sibling is blitted into the other half and the parent's
   digest is written over the half the next index bit puts it in. *)
let compute_root ~leaf { index; siblings } =
  let buf = scratch () in
  let half i = if i land 1 = 0 then 1 else 33 in
  Bytes.blit_string (leaf_hash leaf) 0 buf (half index) 32;
  let idx = ref index in
  List.iter
    (fun sib ->
      if String.length sib <> 32 then invalid_arg "Merkle.compute_root: siblings must be 32 bytes";
      Bytes.blit_string sib 0 buf (34 - half !idx) 32;
      idx := !idx lsr 1;
      Blake3.digest_into buf ~off:0 ~len:65 buf ~dst_off:(half !idx))
    siblings;
  Bytes.sub_string buf (half !idx) 32

let verify ~root:expected ~leaf proof =
  List.for_all (fun sib -> String.length sib = 32) proof.siblings
  && Dsig_util.Bytesutil.equal_ct (compute_root ~leaf proof) expected

let encode_proof { index; siblings } =
  Dsig_util.Bytesutil.concat
    (Dsig_util.Bytesutil.u32_le (Int32.of_int index) :: siblings)

let read_proof ~levels s off =
  if off < 0 || off + 4 + (32 * levels) > String.length s then None
  else begin
    let index = Int32.to_int (Dsig_util.Bytesutil.get_u32_le s off) in
    if index < 0 then None
    else Some { index; siblings = List.init levels (fun i -> String.sub s (off + 4 + (32 * i)) 32) }
  end

let decode_proof ~levels s =
  if String.length s <> 4 + (32 * levels) then None else read_proof ~levels s 0

type tree = t

module Multiproof = struct
  (* The proof carries, level by level, the sibling digests that cannot
     be recomputed from the leaves being proven. Verification rebuilds
     the covered frontier bottom-up, consuming carried digests in a
     canonical (level-major, index-minor) order. *)
  type t = { indices : int list; levels : int; carried : string list }

  let create (tree : tree) indices =
    let n_padded =
      (* padded leaf count = width of level 0 *)
      Array.length tree.levels.(0)
    in
    let sorted = List.sort_uniq compare indices in
    if List.length sorted <> List.length indices then
      invalid_arg "Merkle.Multiproof.create: duplicate indices";
    List.iter
      (fun i -> if i < 0 || i >= tree.n then invalid_arg "Merkle.Multiproof.create: out of range")
      sorted;
    let levels = Array.length tree.levels - 1 in
    let carried = ref [] in
    let frontier = ref sorted in
    let width = ref n_padded in
    for l = 0 to levels - 1 do
      let covered = !frontier in
      let next = List.sort_uniq compare (List.map (fun i -> i / 2) covered) in
      (* a parent needs a carried digest for any child not in the
         covered set *)
      List.iter
        (fun p ->
          List.iter
            (fun child ->
              if child < !width && not (List.mem child covered) then
                carried := tree.levels.(l).(child) :: !carried)
            [ 2 * p; (2 * p) + 1 ])
        next;
      frontier := next;
      width := !width / 2
    done;
    { indices = sorted; levels; carried = List.rev !carried }

  let verify ~root ~leaves t =
    let sorted = List.sort compare leaves in
    if List.map fst sorted <> t.indices then false
    else begin
      let carried = ref t.carried in
      let take () =
        match !carried with
        | d :: rest ->
            carried := rest;
            Some d
        | [] -> None
      in
      let frontier =
        ref (List.map (fun (i, content) -> (i, leaf_hash content)) sorted)
      in
      let ok = ref true in
      let buf = scratch () in
      for _l = 0 to t.levels - 1 do
        let covered = !frontier in
        let parents = List.sort_uniq compare (List.map (fun (i, _) -> i / 2) covered) in
        frontier :=
          List.map
            (fun p ->
              let child c =
                match List.assoc_opt c covered with
                | Some d -> Some d
                | None -> take ()
              in
              match (child (2 * p), child ((2 * p) + 1)) with
              | Some l, Some r when String.length l = 32 && String.length r = 32 ->
                  (p, node_hash buf l r)
              | _ ->
                  ok := false;
                  (p, ""))
            parents
      done;
      !ok
      && (match !frontier with
         | [ (0, computed) ] -> Dsig_util.Bytesutil.equal_ct computed root
         | _ -> false)
      && !carried = []
    end

  let size_bytes t = (32 * List.length t.carried) + (4 * List.length t.indices) + 4

  let naive_size_bytes (tree : tree) indices =
    List.length indices * proof_size_bytes ~leaves:tree.n

  let indices t = t.indices

  (* u16 nindices | u32 index* | u8 levels | u16 ncarried | digests *)
  let encode t =
    let buf = Buffer.create 256 in
    let module BU = Dsig_util.Bytesutil in
    Buffer.add_string buf (BU.u16_be (List.length t.indices));
    List.iter (fun i -> Buffer.add_string buf (BU.u32_le (Int32.of_int i))) t.indices;
    Buffer.add_char buf (Char.chr t.levels);
    Buffer.add_string buf (BU.u16_be (List.length t.carried));
    List.iter (Buffer.add_string buf) t.carried;
    Buffer.contents buf

  let decode s =
    let module BU = Dsig_util.Bytesutil in
    let len = String.length s in
    if len < 2 then None
    else begin
      let nidx = BU.get_u16_be s 0 in
      let pos = 2 + (4 * nidx) in
      if nidx = 0 || pos + 3 > len then None
      else begin
        let indices =
          List.init nidx (fun i -> Int32.to_int (BU.get_u32_le s (2 + (4 * i))))
        in
        let levels = Char.code s.[pos] in
        let ncarried = BU.get_u16_be s (pos + 1) in
        let body = pos + 3 in
        if levels > 40 || body + (32 * ncarried) > len then None
        else begin
          let carried = List.init ncarried (fun i -> String.sub s (body + (32 * i)) 32) in
          let rest = String.sub s (body + (32 * ncarried)) (len - body - (32 * ncarried)) in
          if List.exists (fun i -> i < 0) indices || List.sort_uniq compare indices <> indices
          then None
          else Some ({ indices; levels; carried }, rest)
        end
      end
    end
end

module Forest = struct
  type forest = { trees : t array; per_tree : int }

  let build ~trees leaves =
    let n = Array.length leaves in
    if trees <= 0 || n mod trees <> 0 then
      invalid_arg "Merkle.Forest.build: tree count must divide leaf count";
    let per_tree = n / trees in
    {
      trees = Array.init trees (fun i -> build (Array.sub leaves (i * per_tree) per_tree));
      per_tree;
    }

  let roots f = Array.to_list (Array.map root f.trees)
  let tree f i = f.trees.(i)
  let roots_digest f = Blake3.digest (String.concat "" (roots f))

  let proof f i =
    let tree = i / f.per_tree in
    (tree, proof f.trees.(tree) (i mod f.per_tree))

  let verify ~roots ~leaf (tree, pf) =
    match List.nth_opt roots tree with
    | None -> false
    | Some r -> verify ~root:r ~leaf pf
end
