type t = { signer : Signer.t; domain : unit Domain.t option Atomic.t }

let start signer =
  let drive () = while Signer.await_refill signer do ignore (Signer.background_step signer) done in
  { signer; domain = Atomic.make (Some (Domain.spawn drive)) }

let create cfg ~id ~eddsa ~seed ?options () =
  start
    (Signer.create cfg ~id ~eddsa ~rng:(Dsig_util.Rng.create seed) ~prefix:"dsig_runtime" ?options
       ~verifiers:[] ())

let signer t = t.signer
let sign t msg = Signer.sign t.signer msg
let sign_ctx t msg = Signer.sign_ctx t.signer msg
let queue_depth t = Signer.queue_depth t.signer
let batches_generated t = (Signer.stats t.signer).Signer.batches
let store t = Signer.store t.signer
let store_recovery t = Signer.store_recovery t.signer
let drain_announcements t = List.map fst (Signer.drain_announcements t.signer)
let control_plane t = Signer.control_plane t.signer
let track_announcement t ann ~dests = Announce.Plane.track (control_plane t) ann ~dests
let unacked_announcements t = Signer.unacked_announcements t.signer

let shutdown t =
  match Atomic.exchange t.domain None with
  | None -> ()
  | Some d ->
      Signer.stop t.signer;
      Domain.join d;
      (* the driver domain is quiescent: safe to seal the journal *)
      Signer.close t.signer
