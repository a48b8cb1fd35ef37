type t = Announce.Plane.t

let of_signer = Signer.control_plane
let of_runtime = Runtime.control_plane
let deliver_ack = Announce.Plane.deliver_ack
let deliver_request = Announce.Plane.deliver_request
let note_pressure = Announce.Plane.note_pressure
let step = Announce.Plane.step

let deliver t control =
  match control with
  | Batch.Ack a ->
      deliver_ack t a;
      []
  | Batch.Acks l ->
      List.iter (deliver_ack t) l;
      []
  | Batch.Credit { pressure; acks } ->
      (* all acks in a Credit frame come from one verifier; an empty
         frame carries no routable origin and is dropped *)
      (match acks with
      | a :: _ -> note_pressure t ~verifier:a.Batch.ack_verifier ~pressure
      | [] -> ());
      List.iter (deliver_ack t) acks;
      []
  | Batch.Request r -> (
      match deliver_request t r with
      | Some ann -> [ (r.Batch.req_verifier, ann) ]
      | None -> [])
