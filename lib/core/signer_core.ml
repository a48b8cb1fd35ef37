module Merkle = Dsig_merkle.Merkle
module Eddsa = Dsig_ed25519.Eddsa
module Domain_pool = Dsig_util.Domain_pool
module Tel = Dsig_telemetry.Telemetry
module Tracer = Dsig_telemetry.Tracer
module Metric = Dsig_telemetry.Metric
module Lifecycle = Dsig_telemetry.Lifecycle
module Trace = Dsig_telemetry.Trace_ctx
module Keystate = Dsig_store.Keystate
open Dsig_hbss

type prepared = {
  key : Onetime.t;
  batch_id : int64;
  proof : Merkle.proof;
  root_sig : string;
}

type t = {
  cfg : Config.t;
  id : int;
  eddsa : Eddsa.secret_key;
  tel : Tel.t;
  store : Keystate.t option;
  recovery : Keystate.report option;
  translog : (signer:int -> op:string -> signature:string -> unit) option;
  pool : Domain_pool.t option;
  plane : Announce.Plane.t;
  mutable next_batch : int64;
  batches : int Atomic.t;
  signatures : int Atomic.t;
  h_sign : Metric.Histogram.t;
  g_queue : Metric.Gauge.t;
}

let create cfg ~id ~eddsa ~prefix (options : Options.t) =
  let tel = options.telemetry in
  let store, recovery =
    match options.store with
    | None -> (None, None)
    | Some s -> (
        let store_cfg =
          Keystate.config ~group_commit:s.group_commit ~fsync:s.fsync
            ~checkpoint_every:s.checkpoint_every s.dir
        in
        match Keystate.open_ ~telemetry:tel ~fingerprint:(Config.fingerprint cfg) store_cfg with
        | Error e -> failwith ("opening the key-state store: " ^ e)
        | Ok (ks, report) -> (Some ks, Some report))
  in
  let batches = Atomic.make 0 and signatures = Atomic.make 0 in
  (* the probes capture only the counts, never the signer's keys *)
  Tel.probe tel (prefix ^ "_batches_total") (fun () -> Atomic.get batches);
  Tel.probe tel (prefix ^ "_signatures_total") (fun () -> Atomic.get signatures);
  {
    cfg;
    id;
    eddsa;
    tel;
    store;
    recovery;
    translog = options.translog;
    pool = options.parallel;
    plane = Announce.Plane.create tel ~prefix ~id ?sample_hook:options.sample_hook ();
    (* resume past every batch id the previous incarnation might have
       used — the report already includes the crash gap *)
    next_batch = (match recovery with Some r -> r.Keystate.next_batch_id | None -> 0L);
    batches;
    signatures;
    h_sign = Tel.histogram tel (prefix ^ "_sign_us");
    g_queue = Tel.gauge tel (prefix ^ "_queue_depth");
  }

let next_batch_id c =
  let batch_id = c.next_batch in
  c.next_batch <- Int64.succ batch_id;
  batch_id

let make_batch c ~rng ~batch_id =
  let batch =
    Batch.make ~telemetry:c.tel ?pool:c.pool c.cfg ~signer_id:c.id ~batch_id ~eddsa:c.eddsa ~rng
  in
  (* journal the seal before any of the batch's keys can sign *)
  Option.iter (fun ks -> Keystate.seal ks ~batch_id ~size:(Batch.size batch)) c.store;
  batch

let queue_keys c batch q =
  let batch_id = Batch.batch_id batch and root_sig = Batch.root_signature batch in
  for i = 0 to Batch.size batch - 1 do
    Queue.add { key = Batch.key batch i; batch_id; proof = Batch.proof batch i; root_sig } q
  done;
  Atomic.incr c.batches

let body ~nonce p msg =
  match p.key with
  | Onetime.Wots_key kp -> Wire.Wots_body (Wots.sign kp ~nonce msg)
  | Onetime.Hors_key { kp; forest = None } ->
      let hsig = Hors.sign kp ~nonce msg in
      let p = Hors.params kp in
      let indices = Hors.message_indices p ~public_seed:(Hors.public_seed kp) ~nonce msg in
      let selected = Array.make p.Params.Hors.t false in
      Array.iter (fun i -> selected.(i) <- true) indices;
      let elements = Hors.public_elements kp in
      let complement =
        Array.of_list
          (List.filteri (fun i _ -> not selected.(i)) (Array.to_list elements))
      in
      Wire.Hors_fact_body { hsig; complement }
  | Onetime.Hors_key { kp; forest = Some f } ->
      let hsig = Hors.sign kp ~nonce msg in
      let p = Hors.params kp in
      let indices = Hors.message_indices p ~public_seed:(Hors.public_seed kp) ~nonce msg in
      let roots = Array.of_list (Merkle.Forest.roots f) in
      let proofs = Array.map (fun idx -> Merkle.Forest.proof f idx) indices in
      Wire.Hors_merk_body { hsig; roots; proofs }

let encode c p ~nonce msg =
  Wire.encode c.cfg
    {
      Wire.signer_id = c.id;
      batch_id = p.batch_id;
      public_seed = Onetime.public_seed p.key;
      body = body ~nonce p msg;
      batch_proof = p.proof;
      root_sig = p.root_sig;
    }

let reserve c p =
  Option.iter
    (fun ks -> Keystate.reserve ks ~batch_id:p.batch_id ~key_index:p.proof.Merkle.index)
    c.store

let finish c ?(span = Tracer.Sign_fast) ?t1 p ~msg ~wire ~t0 =
  (* transparency: the wire signature is recorded before it is handed
     to the caller, so every signature that leaves the process is in
     the log a verifier can demand inclusion proofs from *)
  Option.iter (fun f -> f ~signer:c.id ~op:msg ~signature:wire) c.translog;
  Atomic.incr c.signatures;
  let t1 = match t1 with Some t1 -> t1 | None -> Tel.now c.tel in
  Metric.Histogram.add c.h_sign (t1 -. t0);
  Tracer.record_at c.tel.Tel.tracer ~tag:c.id span Tracer.Begin t0;
  Tracer.record_at c.tel.Tel.tracer ~tag:c.id span Tracer.End t1;
  let lc = c.tel.Tel.lifecycle in
  if Lifecycle.enabled lc then
    Lifecycle.sign lc
      ~trace_id:(Trace.id ~signer:c.id ~batch_id:p.batch_id ~key_index:p.proof.Merkle.index)
      ~origin:c.id ~birth_us:t0 ~dur_us:(t1 -. t0)

let sign c ?span p ~nonce ~t0 msg =
  (* durability invariant: the reservation is journaled (and covered by
     the group-commit protocol) before the signature is even built, so a
     signature can never leave the process without its record *)
  reserve c p;
  let wire = encode c p ~nonce msg in
  finish c ?span p ~msg ~wire ~t0;
  wire

let trace_ctx c p ~t0 =
  Trace.make ~signer:c.id ~batch_id:p.batch_id ~key_index:p.proof.Merkle.index ~origin:c.id
    ~birth_us:t0
