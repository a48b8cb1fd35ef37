module Eddsa = Dsig_ed25519.Eddsa
module Rng = Dsig_util.Rng

type party = { signer : Signer.t; verifier : Verifier.t }

type t = { cfg : Config.t; parties : party array; auto_background : bool; pki : Pki.t }

let create ?(groups = fun _ -> []) ?(seed = 7L) ?(auto_background = true) ?options cfg ~n () =
  let pki = Pki.create () in
  let master = Rng.create seed in
  let keys = Array.init n (fun _ -> Eddsa.generate (Rng.split master)) in
  Array.iteri (fun id (_, pk) -> Pki.bind pki ~id ~epoch:0 pk) keys;
  let parties_ref = ref [||] in
  let send ~dest ann =
    let parties = !parties_ref in
    if dest >= 0 && dest < Array.length parties then
      ignore (Verifier.deliver parties.(dest).verifier ann)
  in
  let all = List.init n Fun.id in
  (* in-process transport is lossless, so the reliability loop closes
     immediately: ACKs and pull requests route straight back to the
     target signer through its control plane, and repair replies go
     straight back out *)
  let control c =
    let parties = !parties_ref in
    let target = Batch.control_target c in
    if target >= 0 && target < Array.length parties then
      Control_plane.deliver (Control_plane.of_signer parties.(target).signer) c
      |> List.iter (fun (dest, ann) -> send ~dest ann)
  in
  let parties =
    Array.init n (fun id ->
        let sk, _ = keys.(id) in
        {
          signer =
            Signer.create cfg ~id ~eddsa:sk ~rng:(Rng.split master) ~send ~groups:(groups id)
              ?options ~verifiers:all ();
          verifier = Verifier.create cfg ~id ~pki ~control ?options ();
        })
  in
  parties_ref := parties;
  let t = { cfg; parties; auto_background; pki } in
  if auto_background then
    Array.iter (fun p -> Signer.background_fill p.signer) parties;
  t

let config t = t.cfg
let n t = Array.length t.parties
let signer t i = t.parties.(i).signer
let verifier t i = t.parties.(i).verifier

let pki t = t.pki

let sign t ~signer:i ?hint msg =
  let s = Signer.sign t.parties.(i).signer ?hint msg in
  if t.auto_background then Signer.background_fill t.parties.(i).signer;
  s

let verify t ~verifier:i ~msg signature = Verifier.verify t.parties.(i).verifier ~msg signature
