open Dsig_hbss
module Merkle = Dsig_merkle.Merkle

type t =
  | Wots_key of Wots.keypair
  | Hors_key of { kp : Hors.keypair; forest : Merkle.Forest.forest option }

let generate (cfg : Config.t) ~seed =
  match cfg.Config.hbss with
  | Config.Wots p ->
      Wots_key (Wots.generate ~hash:cfg.Config.hash p ~seed)
  | Config.Hors_factorized p -> Hors_key { kp = Hors.generate ~hash:cfg.Config.hash p ~seed; forest = None }
  | Config.Hors_merklified { params; trees } ->
      let kp = Hors.generate ~hash:cfg.Config.hash params ~seed in
      Hors_key { kp; forest = Some (Hors.forest ~trees kp) }

let public_seed = function
  | Wots_key kp -> Wots.public_seed kp
  | Hors_key { kp; _ } -> Hors.public_seed kp

let merklified_leaf ~public_seed ~roots =
  Dsig_hashes.Blake3.digest (String.concat "" (public_seed :: roots))

let batch_leaf = function
  | Wots_key kp -> Wots.public_key_digest kp
  | Hors_key { kp; forest = None } -> Hors.public_key_digest kp
  | Hors_key { kp; forest = Some f } ->
      merklified_leaf ~public_seed:(Hors.public_seed kp) ~roots:(Merkle.Forest.roots f)

let public_elements = function
  | Wots_key kp -> Wots.public_elements kp
  | Hors_key { kp; _ } -> Hors.public_elements kp
