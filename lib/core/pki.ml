module Eddsa = Dsig_ed25519.Eddsa

type binding = { epoch : int; key : Eddsa.public_key }
type revocation = [ `None | `Total | `From of int64 ]

type t = {
  mu : Mutex.t;
  (* per id, bindings sorted by descending epoch (head = active), each
     with its key prepared at bind time ([None]: the key does not
     decode) *)
  bindings : (int, (binding * Eddsa.verifying_key option) list) Hashtbl.t;
  revoked : (int, [ `Total | `From of int64 ]) Hashtbl.t;
}

let create () =
  { mu = Mutex.create (); bindings = Hashtbl.create 16; revoked = Hashtbl.create 4 }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* The key is prepared before taking the lock: it costs about half a
   verification, and a rebind of equal bytes keeps the first one. *)
let bind t ~id ~epoch pk =
  if epoch < 0 then invalid_arg "Pki.bind: epoch must be non-negative";
  let vk = Eddsa.verifying_key pk in
  locked t @@ fun () ->
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.bindings id) in
  match List.find_opt (fun (b, _) -> b.epoch = epoch) existing with
  | Some (b, _) when b.key <> pk -> invalid_arg "Pki.bind: (id, epoch) already bound"
  | Some _ -> ()
  | None ->
      let merged =
        List.sort (fun (a, _) (b, _) -> compare b.epoch a.epoch) (({ epoch; key = pk }, vk) :: existing)
      in
      Hashtbl.replace t.bindings id merged

let active t id =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.bindings id with Some ((b, _) :: _) -> Some b | _ -> None

let history t id =
  locked t @@ fun () ->
  Option.value ~default:[] (Hashtbl.find_opt t.bindings id) |> List.rev_map fst

let revocation t id : revocation =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.revoked id with
  | None -> `None
  | Some (`Total | `From _ as r) -> (r :> revocation)

let is_revoked t id =
  locked t @@ fun () -> Hashtbl.find_opt t.revoked id = Some `Total

let revoke t id = locked t @@ fun () -> Hashtbl.replace t.revoked id `Total

let revoke_from t ~id ~batch =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.revoked id with
  | Some `Total -> ()
  | Some (`From b) when b <= batch -> ()
  | Some (`From _) | None -> Hashtbl.replace t.revoked id (`From batch)

(* The verification-path gate: the prepared key for [id], unless the id
   is totally revoked, [batch] falls at or past a revocation boundary,
   or the key does not decode. *)
let allowed t ~id ~batch =
  locked t @@ fun () ->
  let barred =
    match Hashtbl.find_opt t.revoked id with
    | Some `Total -> true
    | Some (`From b) -> batch >= b
    | None -> false
  in
  if barred then None
  else
    match Hashtbl.find_opt t.bindings id with
    | Some ((_, vk) :: _) -> vk
    | _ -> None

let ids t =
  locked t @@ fun () ->
  Hashtbl.fold
    (fun id bs acc ->
      if bs <> [] && Hashtbl.find_opt t.revoked id <> Some `Total then id :: acc else acc)
    t.bindings []
  |> List.sort compare

let revoked t =
  locked t @@ fun () ->
  Hashtbl.fold (fun id _ acc -> id :: acc) t.revoked [] |> List.sort compare
