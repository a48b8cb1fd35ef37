open Dsig_hbss

type hbss =
  | Wots of Params.Wots.t
  | Hors_factorized of Params.Hors.t
  | Hors_merklified of { params : Params.Hors.t; trees : int }

type t = {
  hbss : hbss;
  hash : Dsig_hashes.Hash.algo;
  batch_size : int;
  queue_threshold : int;
  cache_batches : int;
  eddsa_verify_cache : bool;
}

let wots ~d = Wots (Params.Wots.make ~d ())
let hors_factorized ~k = Hors_factorized (Params.Hors.make ~k ())

let hors_merklified ?(trees = 8) ~k () =
  let params = Params.Hors.make ~k () in
  if params.Params.Hors.t mod trees <> 0 then
    invalid_arg "Config.hors_merklified: trees must divide t";
  Hors_merklified { params; trees }

let make ?(hash = Dsig_hashes.Hash.Haraka) ?(batch_size = 128) ?(queue_threshold = 512)
    ?(cache_batches = 8) ?(eddsa_verify_cache = true) hbss =
  if not (Params.is_pow2 batch_size) then
    invalid_arg "Config.make: batch_size must be a power of two";
  if queue_threshold <= 0 || cache_batches <= 0 then
    invalid_arg "Config.make: thresholds must be positive";
  { hbss; hash; batch_size; queue_threshold; cache_batches; eddsa_verify_cache }

let default = make (wots ~d:4)

let scheme_tag t =
  match t.hbss with Wots _ -> 1 | Hors_factorized _ -> 2 | Hors_merklified _ -> 3

let hash_tag t =
  match t.hash with Dsig_hashes.Hash.Sha256 -> 0 | Blake3 -> 1 | Haraka -> 2

let batch_levels t = Params.log2_exact t.batch_size

let describe t =
  let scheme =
    match t.hbss with
    | Wots p -> Printf.sprintf "W-OTS+ d=%d" p.Params.Wots.d
    | Hors_factorized p -> Printf.sprintf "HORS-F k=%d t=%d" p.Params.Hors.k p.Params.Hors.t
    | Hors_merklified { params; trees } ->
        Printf.sprintf "HORS-M k=%d t=%d trees=%d" params.Params.Hors.k params.Params.Hors.t trees
  in
  Printf.sprintf "%s/%s batch=%d S=%d" scheme
    (Dsig_hashes.Hash.to_string t.hash)
    t.batch_size t.queue_threshold

let fingerprint t =
  Dsig_util.Bytesutil.to_hex (Dsig_hashes.Hash.digest Dsig_hashes.Hash.Blake3 ~length:8 (describe t))
