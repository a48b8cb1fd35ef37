module Merkle = Dsig_merkle.Merkle
module Rng = Dsig_util.Rng
module Tel = Dsig_telemetry.Telemetry
module Tracer = Dsig_telemetry.Tracer
module Metric = Dsig_telemetry.Metric
module Lifecycle = Dsig_telemetry.Lifecycle
module Trace = Dsig_telemetry.Trace_ctx
module Keystate = Dsig_store.Keystate

type prepared = {
  key : Onetime.t;
  batch_id : int64;
  proof : Merkle.proof;
  root_sig : string;
}

(* Telemetry handles of both planes, resolved once in [create]. Each
   cell is domain-safe, and the two planes write distinct cells, so the
   background domain never contends with the foreground signer. *)
type tel = {
  bundle : Tel.t;
  c_signs : Metric.Counter.t;
  c_waits : Metric.Counter.t;
  c_reann : Metric.Counter.t;
  c_acks : Metric.Counter.t;
  c_redundant : Metric.Counter.t;
  h_sign : Metric.Histogram.t;
  h_batch : Metric.Histogram.t; (* background plane *)
  g_queue : Metric.Gauge.t;
  g_rtt : Metric.Gauge.t;
  g_rto : Metric.Gauge.t;
  g_peer_pressure : Metric.Gauge.t;
  (* per-destination pacing series are name-suffixed (no label support
     in the exporters) and resolved lazily, under [mu] *)
  dest_gauges : (int, Metric.Gauge.t * Metric.Gauge.t) Hashtbl.t;
}

type t = {
  cfg : Config.t;
  id : int;
  mu : Mutex.t;
  refill : Condition.t; (* signaled when the queue drops below S *)
  available : Condition.t; (* signaled when keys are pushed *)
  keys : prepared Queue.t;
  announcements : Batch.announcement Queue.t;
  announce : Announce.t; (* ACK tracking, guarded by [mu] *)
  batches : int Atomic.t; (* published as dsig_runtime_batches_total *)
  mutable stopping : bool;
  fg_rng : Rng.t; (* foreground nonces; background domain has its own *)
  mutable domain : unit Domain.t option;
  keystate : Keystate.t option; (* journal has its own lock; both domains use it *)
  store_report : Keystate.report option;
  pool : Dsig_util.Domain_pool.t option; (* keygen fan-out for the background plane *)
  sample_hook : (now_us:float -> unit) option; (* observability tick, see Options *)
  tel : tel;
}

let background_loop cfg ~id ~eddsa ~rng t () =
  let telemetry = t.tel.bundle in
  let batch_counter =
    ref (match t.store_report with Some r -> r.Keystate.next_batch_id | None -> 0L)
  in
  let continue_ = ref true in
  while !continue_ do
    (* wait until a refill is needed or we are asked to stop *)
    Mutex.lock t.mu;
    while (not t.stopping) && Queue.length t.keys >= cfg.Config.queue_threshold do
      Condition.wait t.refill t.mu
    done;
    let stop = t.stopping in
    Mutex.unlock t.mu;
    if stop then continue_ := false
    else begin
      (* the expensive part runs outside the lock: key generation,
         Merkle tree, EdDSA signature *)
      let t0 = Tel.now telemetry in
      Tracer.record_at telemetry.Tel.tracer ~tag:id Tracer.Batch_gen Tracer.Begin t0;
      let batch_id = !batch_counter in
      batch_counter := Int64.add batch_id 1L;
      let batch = Batch.make ~telemetry ?pool:t.pool cfg ~signer_id:id ~batch_id ~eddsa ~rng in
      let ann = Batch.announcement cfg batch in
      (* journal the seal before the keys become reachable by sign *)
      Option.iter (fun ks -> Keystate.seal ks ~batch_id ~size:(Batch.size batch)) t.keystate;
      Mutex.lock t.mu;
      for i = 0 to Batch.size batch - 1 do
        Queue.add
          {
            key = Batch.key batch i;
            batch_id;
            proof = Batch.proof batch i;
            root_sig = Batch.root_signature batch;
          }
          t.keys
      done;
      Queue.add ann t.announcements;
      Atomic.incr t.batches;
      Condition.broadcast t.available;
      Mutex.unlock t.mu;
      let t1 = Tel.now telemetry in
      Metric.Histogram.add t.tel.h_batch (t1 -. t0);
      Tracer.record_at telemetry.Tel.tracer ~tag:id Tracer.Batch_gen Tracer.End t1
    end
  done

let create cfg ~id ~eddsa ~seed ?(options = Options.default) () =
  let telemetry = options.Options.telemetry in
  let master = Rng.create seed in
  let bg_rng = Rng.split master in
  let keystate, store_report =
    match options.Options.store with
    | None -> (None, None)
    | Some s -> (
        let store_cfg =
          Keystate.config ~group_commit:s.Options.group_commit ~fsync:s.Options.fsync
            ~checkpoint_every:s.Options.checkpoint_every s.Options.dir
        in
        match Keystate.open_ ~telemetry ~fingerprint:(Config.fingerprint cfg) store_cfg with
        | Error e -> failwith ("Runtime.create: " ^ e)
        | Ok (ks, report) -> (Some ks, Some report))
  in
  let batches = Atomic.make 0 in
  Tel.probe telemetry "dsig_runtime_batches_total" (fun () -> Atomic.get batches);
  let state =
    {
      cfg;
      id;
      mu = Mutex.create ();
      refill = Condition.create ();
      available = Condition.create ();
      keys = Queue.create ();
      announcements = Queue.create ();
      announce = Announce.create ~clock:(fun () -> Tel.now telemetry) ();
      batches;
      stopping = false;
      fg_rng = Rng.split master;
      domain = None;
      keystate;
      store_report;
      pool = options.Options.parallel;
      sample_hook = options.Options.sample_hook;
      tel =
        {
          bundle = telemetry;
          c_signs = Tel.counter telemetry "dsig_runtime_signatures_total";
          c_waits = Tel.counter telemetry "dsig_runtime_sign_waits_total";
          c_reann = Tel.counter telemetry "dsig_runtime_reannounces_total";
          c_acks = Tel.counter telemetry "dsig_runtime_acks_total";
          c_redundant = Tel.counter telemetry "dsig_reannounce_redundant_total";
          h_sign = Tel.histogram telemetry "dsig_runtime_sign_us";
          h_batch = Tel.histogram telemetry "dsig_runtime_batch_gen_us";
          g_queue = Tel.gauge telemetry "dsig_runtime_queue_depth";
          g_rtt = Tel.gauge telemetry "dsig_rtt_us";
          g_rto = Tel.gauge telemetry "dsig_rto_us";
          g_peer_pressure = Tel.gauge telemetry "dsig_runtime_peer_pressure";
          dest_gauges = Hashtbl.create 8;
        };
    }
  in
  state.domain <- Some (Domain.spawn (background_loop cfg ~id ~eddsa ~rng:bg_rng state));
  state

let pop_key t =
  Mutex.lock t.mu;
  if Queue.is_empty t.keys then Metric.Counter.incr t.tel.c_waits;
  while Queue.is_empty t.keys do
    Condition.signal t.refill;
    Condition.wait t.available t.mu
  done;
  let prepared = Queue.pop t.keys in
  Metric.Gauge.set t.tel.g_queue (float_of_int (Queue.length t.keys));
  if Queue.length t.keys < t.cfg.Config.queue_threshold then Condition.signal t.refill;
  Mutex.unlock t.mu;
  prepared

let sign_impl t msg =
  let t0 = Tel.now t.tel.bundle in
  let prepared = pop_key t in
  (* journal the reservation before the signature exists (DESIGN.md §10) *)
  Option.iter
    (fun ks ->
      Keystate.reserve ks ~batch_id:prepared.batch_id ~key_index:prepared.proof.Merkle.index)
    t.keystate;
  let nonce = Rng.bytes t.fg_rng 16 in
  let body =
    match prepared.key with
    | Onetime.Wots_key kp -> Wire.Wots_body (Dsig_hbss.Wots.sign kp ~nonce msg)
    | Onetime.Hors_key _ ->
        invalid_arg "Runtime.sign: HORS configurations not supported by the threaded runtime"
  in
  let wire =
    Wire.encode t.cfg
      {
        Wire.signer_id = t.id;
        batch_id = prepared.batch_id;
        public_seed = Onetime.public_seed prepared.key;
        body;
        batch_proof = prepared.proof;
        root_sig = prepared.root_sig;
      }
  in
  Metric.Counter.incr t.tel.c_signs;
  let t1 = Tel.now t.tel.bundle in
  Metric.Histogram.add t.tel.h_sign (t1 -. t0);
  Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Sign_fast Tracer.Begin t0;
  Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Sign_fast Tracer.End t1;
  let key_index = prepared.proof.Merkle.index in
  let lc = t.tel.bundle.Tel.lifecycle in
  if Lifecycle.enabled lc then
    Lifecycle.sign lc
      ~trace_id:(Trace.id ~signer:t.id ~batch_id:prepared.batch_id ~key_index)
      ~origin:t.id ~birth_us:t0 ~dur_us:(t1 -. t0);
  (wire, prepared.batch_id, key_index, t0)

let sign t msg =
  let wire, _, _, _ = sign_impl t msg in
  wire

let sign_ctx t msg =
  let wire, batch_id, key_index, t0 = sign_impl t msg in
  (wire, Trace.make ~signer:t.id ~batch_id ~key_index ~origin:t.id ~birth_us:t0)

let queue_depth t =
  Mutex.lock t.mu;
  let n = Queue.length t.keys in
  Mutex.unlock t.mu;
  n

let batches_generated t = Atomic.get t.batches

let drain_announcements t =
  Mutex.lock t.mu;
  let anns = List.of_seq (Queue.to_seq t.announcements) in
  Queue.clear t.announcements;
  Mutex.unlock t.mu;
  anns

(* --- announcement control plane (Control_plane.S) ---

   The runtime does not send announcements itself (the embedding
   application distributes what [drain_announcements] returns), so the
   application also reports who it sent to and feeds ACKs/requests back;
   the runtime keeps the shared bookkeeping under its lock. *)

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let track_announcement t ann ~dests = locked t (fun () -> Announce.track t.announce ann ~dests)

let dest_gauges_locked t dest =
  match Hashtbl.find_opt t.tel.dest_gauges dest with
  | Some g -> g
  | None ->
      let g =
        ( Tel.gauge t.tel.bundle (Printf.sprintf "dsig_rtt_us_dest_%d" dest),
          Tel.gauge t.tel.bundle (Printf.sprintf "dsig_rto_us_dest_%d" dest) )
      in
      Hashtbl.add t.tel.dest_gauges dest g;
      g

let observe_rto_locked t ~dest rto =
  let _, g_rto_dest = dest_gauges_locked t dest in
  Metric.Gauge.set t.tel.g_rto rto;
  Metric.Gauge.set g_rto_dest rto

let deliver_ack t (a : Batch.ack) =
  if a.Batch.ack_signer = t.id then begin
    let o =
      locked t (fun () ->
          let o =
            Announce.ack t.announce ~verifier:a.Batch.ack_verifier
              ~batch_id:a.Batch.ack_batch
          in
          if o.Announce.settled then begin
            let dest = a.Batch.ack_verifier in
            (match o.Announce.rtt_sample_us with
            | Some rtt ->
                let g_rtt_dest, _ = dest_gauges_locked t dest in
                Metric.Gauge.set t.tel.g_rtt rtt;
                Metric.Gauge.set g_rtt_dest rtt
            | None -> ());
            match o.Announce.rto_us with
            | Some rto -> observe_rto_locked t ~dest rto
            | None -> ()
          end;
          o)
    in
    if o.Announce.settled then begin
      Metric.Counter.incr t.tel.c_acks;
      if o.Announce.redundant then Metric.Counter.incr t.tel.c_redundant
    end
  end

let note_pressure t ~verifier ~pressure =
  locked t (fun () -> Announce.note_pressure t.announce ~dest:verifier ~pressure);
  Metric.Gauge.set t.tel.g_peer_pressure (float_of_int pressure)

let deliver_request t (r : Batch.request) =
  if r.Batch.req_signer <> t.id then None
  else locked t (fun () -> Announce.lookup t.announce ~batch_id:r.Batch.req_batch)

let step t ~now =
  (* outside [mu]: the hook may take registry snapshots of metrics the
     locked region updates *)
  (match t.sample_hook with Some hook -> hook ~now_us:now | None -> ());
  let due =
    locked t (fun () ->
        let due = Announce.due ~now t.announce in
        List.iter
          (fun (dest, _) ->
            match Announce.rto_us t.announce ~dest with
            | Some rto -> observe_rto_locked t ~dest rto
            | None -> ())
          due;
        due)
  in
  (match due with [] -> () | _ :: _ -> Metric.Counter.incr ~by:(List.length due) t.tel.c_reann);
  due

let unacked_announcements t = locked t (fun () -> Announce.pending t.announce)

let store t = t.keystate
let store_recovery t = t.store_report

let shutdown t =
  Mutex.lock t.mu;
  let was_stopping = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.refill;
  Mutex.unlock t.mu;
  if not was_stopping then begin
    Option.iter Domain.join t.domain;
    (* the background domain is quiescent: safe to seal the journal *)
    Option.iter Keystate.close t.keystate
  end
