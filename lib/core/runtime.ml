module Rng = Dsig_util.Rng
module Tel = Dsig_telemetry.Telemetry
module Tracer = Dsig_telemetry.Tracer
module Metric = Dsig_telemetry.Metric
module Keystate = Dsig_store.Keystate
module Core = Signer_core

type t = {
  core : Core.t;
  mu : Mutex.t; (* guards the key queue and [announcements] only *)
  refill : Condition.t; (* signaled when the queue drops below S *)
  available : Condition.t; (* signaled when keys are pushed *)
  keys : Core.prepared Queue.t;
  announcements : Batch.announcement Queue.t;
  mutable stopping : bool;
  fg_rng : Rng.t; (* foreground nonces; background domain has its own *)
  mutable domain : unit Domain.t option;
  (* the two planes write distinct domain-safe cells, so the background
     domain never contends with the foreground signer *)
  c_waits : Metric.Counter.t;
  h_batch : Metric.Histogram.t; (* background plane *)
}

let background_loop t ~rng () =
  let c = t.core in
  let continue_ = ref true in
  while !continue_ do
    (* wait until a refill is needed or we are asked to stop *)
    Mutex.lock t.mu;
    while (not t.stopping) && Queue.length t.keys >= c.cfg.Config.queue_threshold do
      Condition.wait t.refill t.mu
    done;
    let stop = t.stopping in
    Mutex.unlock t.mu;
    if stop then continue_ := false
    else begin
      (* the expensive part runs outside the lock: key generation,
         Merkle tree, EdDSA signature *)
      let t0 = Tel.now c.tel in
      Tracer.record_at c.tel.Tel.tracer ~tag:c.id Tracer.Batch_gen Tracer.Begin t0;
      let batch = Core.make_batch c ~rng ~batch_id:(Core.next_batch_id c) in
      let ann = Batch.announcement c.cfg batch in
      Mutex.lock t.mu;
      Core.queue_keys c batch t.keys;
      Queue.add ann t.announcements;
      Condition.broadcast t.available;
      Mutex.unlock t.mu;
      let t1 = Tel.now c.tel in
      Metric.Histogram.add t.h_batch (t1 -. t0);
      Tracer.record_at c.tel.Tel.tracer ~tag:c.id Tracer.Batch_gen Tracer.End t1
    end
  done

let create cfg ~id ~eddsa ~seed ?(options = Options.default) () =
  let master = Rng.create seed in
  let bg_rng = Rng.split master in
  let core = Core.create cfg ~id ~eddsa ~prefix:"dsig_runtime" options in
  let t =
    {
      core;
      mu = Mutex.create ();
      refill = Condition.create ();
      available = Condition.create ();
      keys = Queue.create ();
      announcements = Queue.create ();
      stopping = false;
      fg_rng = Rng.split master;
      domain = None;
      c_waits = Tel.counter core.tel "dsig_runtime_sign_waits_total";
      h_batch = Tel.histogram core.tel "dsig_runtime_batch_gen_us";
    }
  in
  t.domain <- Some (Domain.spawn (background_loop t ~rng:bg_rng));
  t

let pop_key t =
  Mutex.lock t.mu;
  if Queue.is_empty t.keys then Metric.Counter.incr t.c_waits;
  while Queue.is_empty t.keys do
    Condition.signal t.refill;
    Condition.wait t.available t.mu
  done;
  let prepared = Queue.pop t.keys in
  Metric.Gauge.set t.core.g_queue (float_of_int (Queue.length t.keys));
  if Queue.length t.keys < t.core.cfg.Config.queue_threshold then Condition.signal t.refill;
  Mutex.unlock t.mu;
  prepared

let sign_impl t msg =
  let t0 = Tel.now t.core.tel in
  let p = pop_key t in
  (Core.sign t.core p ~nonce:(Rng.bytes t.fg_rng 16) ~t0 msg, p, t0)

let sign t msg =
  let wire, _, _ = sign_impl t msg in
  wire

let sign_ctx t msg =
  let wire, p, t0 = sign_impl t msg in
  (wire, Core.trace_ctx t.core p ~t0)

let queue_depth t =
  Mutex.lock t.mu;
  let n = Queue.length t.keys in
  Mutex.unlock t.mu;
  n

let batches_generated t = Atomic.get t.core.batches

let drain_announcements t =
  Mutex.lock t.mu;
  let anns = List.of_seq (Queue.to_seq t.announcements) in
  Queue.clear t.announcements;
  Mutex.unlock t.mu;
  anns

let control_plane t = t.core.plane
let track_announcement t ann ~dests = Announce.Plane.track t.core.plane ann ~dests
let unacked_announcements t = Announce.Plane.pending t.core.plane
let store t = t.core.store
let store_recovery t = t.core.recovery

let shutdown t =
  Mutex.lock t.mu;
  let was_stopping = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.refill;
  Mutex.unlock t.mu;
  if not was_stopping then begin
    Option.iter Domain.join t.domain;
    (* the background domain is quiescent: safe to seal the journal *)
    Option.iter Keystate.close t.core.store
  end
