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
  | Batch.Credit { pressure; ack } ->
      note_pressure t ~verifier:ack.Batch.ack_verifier ~pressure;
      deliver_ack t ack;
      []
  | Batch.Request r -> (
      match deliver_request t r with
      | Some ann -> [ (r.Batch.req_verifier, ann) ]
      | None -> [])
