module Signer = Dsig.Signer

type t = {
  signer : Signer.t;
  clock : unit -> float;
  max_wait_us : float;
  mutable started_at : float option; (* Some while a rotation we drove is in flight *)
}

type progress =
  | Idle
  | Staged of { epoch : int; batch_id : int64; unacked : int }
  | Cut_over of int

let create ?(max_wait_us = 50_000.0) ~clock signer =
  if max_wait_us < 0.0 then invalid_arg "Rotation.create: max_wait_us must be non-negative";
  { signer; clock; max_wait_us; started_at = None }

let start t =
  match Signer.staged_rotation t.signer with
  | Some _ -> invalid_arg "Rotation.start: a rotation is already staged"
  | None ->
      let staged = Signer.stage_next_batch t.signer in
      t.started_at <- Some (t.clock ());
      staged

let step t =
  match Signer.staged_rotation t.signer with
  | None ->
      if t.started_at = None then Idle
      else begin
        (* the signer cut over on its own (default queue drained) *)
        t.started_at <- None;
        Cut_over (Signer.epoch t.signer)
      end
  | Some (epoch, batch_id) ->
      let unacked = Option.value ~default:0 (Signer.staged_unacked t.signer) in
      let expired =
        match t.started_at with
        | Some s -> t.clock () -. s >= t.max_wait_us
        | None -> true (* staged by someone else: we only see it settled *)
      in
      if unacked = 0 || expired then begin
        t.started_at <- None;
        Cut_over (Signer.cutover t.signer)
      end
      else Staged { epoch; batch_id; unacked }

let in_flight t = Signer.staged_rotation t.signer <> None
