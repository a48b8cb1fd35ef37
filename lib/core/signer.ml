open Dsig_hbss
module Merkle = Dsig_merkle.Merkle
module Eddsa = Dsig_ed25519.Eddsa
module Rng = Dsig_util.Rng
module Domain_pool = Dsig_util.Domain_pool
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

type group = { members : int list (* sorted *); queue : prepared Queue.t }

(* A pre-generated next-generation batch awaiting cutover (key
   lifecycle plane): sealed and announced, but not yet serving keys. *)
type staged = {
  s_epoch : int;
  s_batch_id : int64;
  s_keys : prepared Queue.t;
  s_size : int;
  s_staged_at_us : float;
}

type stats = {
  mutable signatures : int;
  mutable batches : int;
  mutable sync_refills : int;
  mutable reannounces : int;
  mutable requests_served : int;
}

(* Telemetry handles, resolved once at creation (metric names are shared
   across signers; per-signer series are distinguished by tracer tags).
   The [stats] counts reach the registry as probes ([probe_stats]). *)
type tel = {
  bundle : Tel.t;
  c_acks : Metric.Counter.t;
  c_giveups : Metric.Counter.t;
  c_redundant : Metric.Counter.t;
  c_rot_staged : Metric.Counter.t;
  c_rot_cutovers : Metric.Counter.t;
  c_rot_dropped_keys : Metric.Counter.t;
  h_sign : Metric.Histogram.t;
  h_refill : Metric.Histogram.t;
  h_cutover : Metric.Histogram.t;
  g_queue : Metric.Gauge.t;
  g_unacked : Metric.Gauge.t;
  g_rtt : Metric.Gauge.t;
  g_rto : Metric.Gauge.t;
  g_epoch : Metric.Gauge.t;
  g_peer_pressure : Metric.Gauge.t;
  (* exporters have no label dimension, so per-destination series are
     name-suffixed (dsig_rtt_us_dest_<id>) and resolved lazily *)
  dest_gauges : (int, Metric.Gauge.t * Metric.Gauge.t) Hashtbl.t;
}

type t = {
  cfg : Config.t;
  id : int;
  eddsa : Eddsa.secret_key;
  rng : Rng.t;
  groups : group list; (* default group last, so smaller matches win *)
  mutable batch_counter : int64;
  mutable epoch : int; (* confirmed rotation epoch *)
  mutable staged : staged option; (* pre-generated batch awaiting cutover *)
  send : dest:int -> Batch.announcement -> unit;
  outbox : (int * Batch.announcement) Queue.t;
  announce : Announce.t; (* ACK tracking + re-announce + request repair *)
  mutable gave_up_seen : int; (* Announce.gave_up already counted *)
  keystate : Keystate.t option; (* durable key-state journal, if enabled *)
  store_report : Keystate.report option;
  translog_sink : (signer:int -> op:string -> signature:string -> unit) option;
  pool : Domain_pool.t option; (* worker domains for keygen / sign_many *)
  sample_hook : (now_us:float -> unit) option; (* observability tick, see Options *)
  stats : stats;
  tel : tel;
}

(* The probes capture only the record, never the signer's keys. *)
let probe_stats telemetry (s : stats) =
  List.iter
    (fun (name, read) -> Tel.probe telemetry name read)
    [
      ("dsig_signer_signatures_total", fun () -> s.signatures);
      ("dsig_signer_batches_total", fun () -> s.batches);
      ("dsig_signer_sync_refills_total", fun () -> s.sync_refills);
      ("dsig_signer_reannounces_total", fun () -> s.reannounces);
      ("dsig_signer_batch_requests_total", fun () -> s.requests_served);
    ]

let create cfg ~id ~eddsa ~rng ?send ?(groups = []) ?(options = Options.default) ~verifiers () =
  let telemetry = options.Options.telemetry in
  let stats =
    { signatures = 0; batches = 0; sync_refills = 0; reannounces = 0; requests_served = 0 }
  in
  probe_stats telemetry stats;
  let outbox = Queue.create () in
  let send =
    match send with
    | Some f -> f
    | None -> fun ~dest ann -> Queue.add (dest, ann) outbox
  in
  let normalize members = List.sort_uniq compare members in
  let mk members = { members = normalize members; queue = Queue.create () } in
  let default = mk verifiers in
  let extra =
    groups
    |> List.map normalize
    |> List.filter (fun m -> m <> default.members)
    |> List.sort_uniq compare
    |> List.map (fun m -> { members = m; queue = Queue.create () })
  in
  (* smallest groups first so the "smallest group containing the hint"
     rule is a simple find *)
  let extra = List.sort (fun a b -> compare (List.length a.members) (List.length b.members)) extra in
  let keystate, store_report =
    match options.Options.store with
    | None -> (None, None)
    | Some s -> (
        let store_cfg =
          Keystate.config ~group_commit:s.Options.group_commit ~fsync:s.Options.fsync
            ~checkpoint_every:s.Options.checkpoint_every s.Options.dir
        in
        match Keystate.open_ ~telemetry ~fingerprint:(Config.fingerprint cfg) store_cfg with
        | Error e -> failwith ("Signer.create: " ^ e)
        | Ok (ks, report) -> (Some ks, Some report))
  in
  {
    cfg;
    id;
    eddsa;
    rng;
    groups = extra @ [ default ];
    (* resume past every batch id the previous incarnation might have
       used — the report already includes the crash gap *)
    batch_counter =
      (match store_report with Some r -> r.Keystate.next_batch_id | None -> 0L);
    epoch = (match store_report with Some r -> r.Keystate.epoch | None -> 0);
    staged = None;
    send;
    outbox;
    announce = Announce.create ~clock:(fun () -> Tel.now telemetry) ();
    gave_up_seen = 0;
    keystate;
    store_report;
    translog_sink = options.Options.translog;
    pool = options.Options.parallel;
    sample_hook = options.Options.sample_hook;
    stats;
    tel =
      {
        bundle = telemetry;
        c_acks = Tel.counter telemetry "dsig_signer_acks_total";
        c_giveups = Tel.counter telemetry "dsig_signer_announce_giveups_total";
        c_redundant = Tel.counter telemetry "dsig_reannounce_redundant_total";
        c_rot_staged = Tel.counter telemetry "dsig_rotation_staged_total";
        c_rot_cutovers = Tel.counter telemetry "dsig_rotation_cutovers_total";
        c_rot_dropped_keys = Tel.counter telemetry "dsig_rotation_dropped_keys_total";
        h_sign = Tel.histogram telemetry "dsig_signer_sign_us";
        h_refill = Tel.histogram telemetry "dsig_signer_refill_us";
        h_cutover = Tel.histogram telemetry "dsig_rotation_cutover_us";
        g_queue = Tel.gauge telemetry "dsig_signer_queue_depth";
        g_unacked = Tel.gauge telemetry "dsig_signer_unacked_announcements";
        g_rtt = Tel.gauge telemetry "dsig_rtt_us";
        g_rto = Tel.gauge telemetry "dsig_rto_us";
        g_epoch = Tel.gauge telemetry "dsig_rotation_epoch";
        g_peer_pressure = Tel.gauge telemetry "dsig_signer_peer_pressure";
        dest_gauges = Hashtbl.create 8;
      };
  }

let id t = t.id
let config t = t.cfg
let eddsa_public_key t = Eddsa.public_key t.eddsa
let stats t = t.stats
let store t = t.keystate
let store_recovery t = t.store_report
let close t = Option.iter Keystate.close t.keystate

let drain_outbox t =
  let items = List.of_seq (Queue.to_seq t.outbox) in
  Queue.clear t.outbox;
  items

let subset hint members = List.for_all (fun v -> List.mem v members) hint

let select_group t hint =
  match hint with
  | None -> List.nth t.groups (List.length t.groups - 1)
  | Some hint -> (
      let hint = List.sort_uniq compare hint in
      match List.find_opt (fun g -> subset hint g.members) t.groups with
      | Some g -> g
      | None -> List.nth t.groups (List.length t.groups - 1))

(* Generate one batch for [group], multicast its announcement, and queue
   the prepared keys (Alg. 1 lines 6-11, batched per §4.4). *)
let refill t group =
  Log.L.debug (fun m ->
      m "signer %d: refilling group [%s] (queue %d < S=%d)" t.id
        (String.concat "," (List.map string_of_int group.members))
        (Queue.length group.queue) t.cfg.Config.queue_threshold);
  let t0 = Tel.now t.tel.bundle in
  Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Batch_gen Tracer.Begin t0;
  let batch_id = t.batch_counter in
  t.batch_counter <- Int64.add t.batch_counter 1L;
  let batch =
    Batch.make ~telemetry:t.tel.bundle ?pool:t.pool t.cfg ~signer_id:t.id ~batch_id
      ~eddsa:t.eddsa ~rng:t.rng
  in
  (* journal the seal before any of the batch's keys can sign *)
  Option.iter (fun ks -> Keystate.seal ks ~batch_id ~size:(Batch.size batch)) t.keystate;
  t.stats.batches <- t.stats.batches + 1;
  let ann = Batch.announcement t.cfg batch in
  let dests = List.filter (fun dest -> dest <> t.id) group.members in
  (* track before sending: over an in-process transport the ACK comes
     back synchronously, and it must find the batch registered *)
  if dests <> [] then Announce.track t.announce ann ~dests;
  List.iter (fun dest -> t.send ~dest ann) dests;
  if dests <> [] then
    Metric.Gauge.set t.tel.g_unacked (float_of_int (Announce.pending t.announce));
  for i = 0 to Batch.size batch - 1 do
    Queue.add
      {
        key = Batch.key batch i;
        batch_id;
        proof = Batch.proof batch i;
        root_sig = Batch.root_signature batch;
      }
      group.queue
  done;
  (* the gauge tracks prepared keys process-wide, so move it by deltas
     rather than overwriting other signers' contributions *)
  Metric.Gauge.add t.tel.g_queue (float_of_int (Batch.size batch));
  let t1 = Tel.now t.tel.bundle in
  Metric.Histogram.add t.tel.h_refill (t1 -. t0);
  Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Batch_gen Tracer.End t1

let default_group t = List.nth t.groups (List.length t.groups - 1)

(* --- zero-downtime rotation (key lifecycle plane) ---

   [stage_next_batch] pre-generates the next-generation batch off the
   critical path — journaling the propose record {e before} the seal so
   a crash at any point recovers to exactly one live generation — and
   announces its root over the ordinary announcement/ACK plane while
   the current batch keeps serving. [cutover] then atomically swaps:
   journal the confirm record, drop the dying batches' pending
   re-announcements, discard their queued keys, and start serving the
   staged generation. *)

let stage_next_batch t =
  if t.staged <> None then invalid_arg "Signer.stage_next_batch: rotation already staged";
  let t0 = Tel.now t.tel.bundle in
  let epoch = t.epoch + 1 in
  let batch_id = t.batch_counter in
  t.batch_counter <- Int64.add t.batch_counter 1L;
  Option.iter (fun ks -> Keystate.propose_rotation ks ~epoch ~batch_id) t.keystate;
  let batch =
    Batch.make ~telemetry:t.tel.bundle ?pool:t.pool t.cfg ~signer_id:t.id ~batch_id
      ~eddsa:t.eddsa ~rng:t.rng
  in
  Option.iter (fun ks -> Keystate.seal ks ~batch_id ~size:(Batch.size batch)) t.keystate;
  t.stats.batches <- t.stats.batches + 1;
  let ann = Batch.announcement t.cfg batch in
  let group = default_group t in
  let dests = List.filter (fun dest -> dest <> t.id) group.members in
  if dests <> [] then Announce.track t.announce ann ~dests;
  List.iter (fun dest -> t.send ~dest ann) dests;
  if dests <> [] then
    Metric.Gauge.set t.tel.g_unacked (float_of_int (Announce.pending t.announce));
  let keys = Queue.create () in
  for i = 0 to Batch.size batch - 1 do
    Queue.add
      {
        key = Batch.key batch i;
        batch_id;
        proof = Batch.proof batch i;
        root_sig = Batch.root_signature batch;
      }
      keys
  done;
  t.staged <-
    Some
      { s_epoch = epoch; s_batch_id = batch_id; s_keys = keys; s_size = Batch.size batch;
        s_staged_at_us = t0 };
  Metric.Counter.incr t.tel.c_rot_staged;
  Log.L.info (fun m ->
      m "signer %d: staged rotation epoch %d (batch %Ld, %d keys)" t.id epoch batch_id
        (Batch.size batch));
  (epoch, batch_id)

let staged_rotation t = Option.map (fun s -> (s.s_epoch, s.s_batch_id)) t.staged

let staged_unacked t =
  match t.staged with
  | None -> None
  | Some s -> (
      match Announce.pending_for t.announce ~batch_id:s.s_batch_id with
      | Some n -> Some n
      | None -> Some 0)

let cutover t =
  match t.staged with
  | None -> invalid_arg "Signer.cutover: no staged rotation"
  | Some s ->
      let t0 = Tel.now t.tel.bundle in
      Option.iter
        (fun ks -> Keystate.confirm_rotation ks ~epoch:s.s_epoch ~batch_id:s.s_batch_id)
        t.keystate;
      (* the dying generation stops re-announcing and its queued keys
         are discarded — they can never sign under the new epoch *)
      ignore (Announce.drop_before t.announce ~batch_id:s.s_batch_id);
      let discarded = ref 0 in
      List.iter
        (fun g ->
          discarded := !discarded + Queue.length g.queue;
          Queue.clear g.queue)
        t.groups;
      if !discarded > 0 then begin
        Metric.Counter.incr ~by:!discarded t.tel.c_rot_dropped_keys;
        Metric.Gauge.add t.tel.g_queue (float_of_int (- !discarded))
      end;
      let group = default_group t in
      Queue.transfer s.s_keys group.queue;
      Metric.Gauge.add t.tel.g_queue (float_of_int s.s_size);
      t.epoch <- s.s_epoch;
      t.staged <- None;
      Metric.Gauge.set t.tel.g_unacked (float_of_int (Announce.pending t.announce));
      Metric.Counter.incr t.tel.c_rot_cutovers;
      Metric.Gauge.set t.tel.g_epoch (float_of_int t.epoch);
      let t1 = Tel.now t.tel.bundle in
      Metric.Histogram.add t.tel.h_cutover (t1 -. t0);
      Log.L.info (fun m ->
          m "signer %d: rotation cutover to epoch %d (batch %Ld, %d stale keys dropped)" t.id
            t.epoch s.s_batch_id !discarded);
      t.epoch

let epoch t = t.epoch

let background_step t =
  match
    List.find_opt
      (fun g ->
        Queue.length g.queue < t.cfg.Config.queue_threshold
        (* a staged rotation suppresses refills of the dying default
           generation: cutover is imminent and would discard them *)
        && not (t.staged <> None && g == default_group t))
      t.groups
  with
  | None -> false
  | Some g ->
      refill t g;
      true

let background_fill t = while background_step t do () done

let queue_length t hint = Queue.length (select_group t (Some hint)).queue

let fresh_nonce t = Rng.bytes t.rng 16

(* Pure given its inputs, so [sign_many] can run it on worker domains
   with pre-drawn nonces. *)
let make_body_with ~nonce prepared msg =
  match prepared.key with
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

let make_body t prepared msg = make_body_with ~nonce:(fresh_nonce t) prepared msg

let encode_prepared t prepared body =
  Wire.encode t.cfg
    {
      Wire.signer_id = t.id;
      batch_id = prepared.batch_id;
      public_seed = Onetime.public_seed prepared.key;
      body;
      batch_proof = prepared.proof;
      root_sig = prepared.root_sig;
    }

let sign_impl t ?hint msg =
  let t0 = Tel.now t.tel.bundle in
  let group = select_group t hint in
  let synced = Queue.is_empty group.queue in
  if synced then begin
    (* a drained default queue with a staged rotation cuts over instead
       of refilling the dying generation — signing never blocks on
       rotation for longer than the cutover itself *)
    if t.staged <> None && group == default_group t then ignore (cutover t)
    else begin
      t.stats.sync_refills <- t.stats.sync_refills + 1;
      Log.L.warn (fun m ->
          m "signer %d: key queue empty, refilling on the critical path" t.id);
      refill t group
    end
  end;
  let prepared = Queue.pop group.queue in
  let key_index = prepared.proof.Merkle.index in
  (* durability invariant: the reservation is journaled (and covered by
     the group-commit protocol) before the signature is even built, so a
     signature can never leave the process without its record *)
  Option.iter
    (fun ks -> Keystate.reserve ks ~batch_id:prepared.batch_id ~key_index)
    t.keystate;
  t.stats.signatures <- t.stats.signatures + 1;
  let body = make_body t prepared msg in
  let wire = encode_prepared t prepared body in
  (* transparency: the wire signature is recorded before it is handed
     to the caller, so every signature that leaves the process is in
     the log a verifier can demand inclusion proofs from *)
  Option.iter (fun f -> f ~signer:t.id ~op:msg ~signature:wire) t.translog_sink;
  Metric.Gauge.add t.tel.g_queue (-1.0);
  let t1 = Tel.now t.tel.bundle in
  Metric.Histogram.add t.tel.h_sign (t1 -. t0);
  let span = if synced then Tracer.Sign_sync_refill else Tracer.Sign_fast in
  Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id span Tracer.Begin t0;
  Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id span Tracer.End t1;
  let lc = t.tel.bundle.Tel.lifecycle in
  if Lifecycle.enabled lc then
    Lifecycle.sign lc
      ~trace_id:(Trace.id ~signer:t.id ~batch_id:prepared.batch_id ~key_index)
      ~origin:t.id ~birth_us:t0 ~dur_us:(t1 -. t0);
  (wire, prepared.batch_id, key_index, t0)

let sign t ?hint msg =
  let wire, _, _, _ = sign_impl t ?hint msg in
  wire

let sign_ctx t ?hint msg =
  let wire, batch_id, key_index, t0 = sign_impl t ?hint msg in
  (wire, Trace.make ~signer:t.id ~batch_id ~key_index ~origin:t.id ~birth_us:t0)

(* Batch signing across the worker pool. The division of labor follows
   the shard-ownership invariant (DESIGN.md §12): the calling domain
   pops prepared keys (ascending key indices), journals every
   reservation in consumption order, and pre-draws the nonces; worker
   domains then build signature bodies and wire encodings over
   contiguous index ranges — one range per shard, so no two domains
   ever touch the same one-time key; the calling domain folds back
   translog, stats, metrics, tracer and lifecycle accounting in input
   order. Without a pool this degrades to a plain loop over [sign]. *)
let sign_many t ?hint msgs =
  let n = Array.length msgs in
  match t.pool with
  | Some pool when n > 1 && Domain_pool.size pool > 1 ->
      let group = select_group t hint in
      if t.staged <> None && Queue.length group.queue < n && group == default_group t then
        ignore (cutover t);
      while Queue.length group.queue < n do
        t.stats.sync_refills <- t.stats.sync_refills + 1;
        Log.L.warn (fun m ->
            m "signer %d: key queue short (%d < %d), refilling on the critical path" t.id
              (Queue.length group.queue) n);
        refill t group
      done;
      let prepared = Array.init n (fun _ -> Queue.pop group.queue) in
      (* durability invariant, batch form: every reservation is
         journaled — in the same ascending-index order a sequential
         signer would produce — before any signature is built, so no
         signature can leave the process without its record *)
      Option.iter
        (fun ks ->
          Array.iter
            (fun p -> Keystate.reserve ks ~batch_id:p.batch_id ~key_index:p.proof.Merkle.index)
            prepared)
        t.keystate;
      let nonces = Array.init n (fun _ -> fresh_nonce t) in
      let jobs = Array.init n (fun i -> (prepared.(i), nonces.(i), msgs.(i))) in
      let results =
        Domain_pool.parallel_map pool
          ~f:(fun ~shard:_ (p, nonce, msg) ->
            let t0 = Tel.now t.tel.bundle in
            let wire = encode_prepared t p (make_body_with ~nonce p msg) in
            let t1 = Tel.now t.tel.bundle in
            (wire, t0, t1))
          jobs
      in
      let lc = t.tel.bundle.Tel.lifecycle in
      Array.iteri
        (fun i (wire, t0, t1) ->
          let p = prepared.(i) in
          Option.iter (fun f -> f ~signer:t.id ~op:msgs.(i) ~signature:wire) t.translog_sink;
          t.stats.signatures <- t.stats.signatures + 1;
          Metric.Histogram.add t.tel.h_sign (t1 -. t0);
          Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Sign_fast Tracer.Begin t0;
          Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Sign_fast Tracer.End t1;
          if Lifecycle.enabled lc then
            Lifecycle.sign lc
              ~trace_id:
                (Trace.id ~signer:t.id ~batch_id:p.batch_id ~key_index:p.proof.Merkle.index)
              ~origin:t.id ~birth_us:t0 ~dur_us:(t1 -. t0))
        results;
      Metric.Gauge.add t.tel.g_queue (float_of_int (-n));
      Array.map (fun (wire, _, _) -> wire) results
  | _ -> Array.map (fun msg -> sign t ?hint msg) msgs

(* --- announcement-plane control surface (Control_plane.S) --- *)

let sync_unacked_gauge t = Metric.Gauge.set t.tel.g_unacked (float_of_int (Announce.pending t.announce))

let dest_gauges t dest =
  match Hashtbl.find_opt t.tel.dest_gauges dest with
  | Some g -> g
  | None ->
      let g =
        ( Tel.gauge t.tel.bundle (Printf.sprintf "dsig_rtt_us_dest_%d" dest),
          Tel.gauge t.tel.bundle (Printf.sprintf "dsig_rto_us_dest_%d" dest) )
      in
      Hashtbl.add t.tel.dest_gauges dest g;
      g

let observe_rto t ~dest rto =
  let _, g_rto_dest = dest_gauges t dest in
  Metric.Gauge.set t.tel.g_rto rto;
  Metric.Gauge.set g_rto_dest rto

let deliver_ack t (a : Batch.ack) =
  if a.Batch.ack_signer = t.id then begin
    let o = Announce.ack t.announce ~verifier:a.Batch.ack_verifier ~batch_id:a.Batch.ack_batch in
    if o.Announce.settled then begin
      Metric.Counter.incr t.tel.c_acks;
      sync_unacked_gauge t;
      let dest = a.Batch.ack_verifier in
      (match o.Announce.rtt_sample_us with
      | Some rtt ->
          let g_rtt_dest, _ = dest_gauges t dest in
          Metric.Gauge.set t.tel.g_rtt rtt;
          Metric.Gauge.set g_rtt_dest rtt
      | None -> ());
      (match o.Announce.rto_us with
      | Some rto -> observe_rto t ~dest rto
      | None -> ());
      if o.Announce.redundant then Metric.Counter.incr t.tel.c_redundant
    end
  end

let note_pressure t ~verifier ~pressure =
  Announce.note_pressure t.announce ~dest:verifier ~pressure;
  Metric.Gauge.set t.tel.g_peer_pressure (float_of_int pressure)

let deliver_request t (r : Batch.request) =
  if r.Batch.req_signer <> t.id then None
  else
    match Announce.lookup t.announce ~batch_id:r.Batch.req_batch with
    | None ->
        Log.L.debug (fun m ->
            m "signer %d: batch %Ld requested by %d but no longer retained" t.id
              r.Batch.req_batch r.Batch.req_verifier);
        None
    | Some ann ->
        t.stats.requests_served <- t.stats.requests_served + 1;
        Some ann

let step t ~now =
  (match t.sample_hook with Some hook -> hook ~now_us:now | None -> ());
  let due = Announce.due ~now t.announce in
  (* destinations abandoned by retention eviction since the last step
     surface as counter deltas *)
  let gave_up = Announce.gave_up t.announce in
  if gave_up > t.gave_up_seen then begin
    Metric.Counter.incr ~by:(gave_up - t.gave_up_seen) t.tel.c_giveups;
    t.gave_up_seen <- gave_up
  end;
  (match due with
  | [] -> ()
  | _ :: _ ->
      let t0 = Tel.now t.tel.bundle in
      List.iter
        (fun (dest, _) ->
          t.stats.reannounces <- t.stats.reannounces + 1;
          match Announce.rto_us t.announce ~dest with
          | Some rto -> observe_rto t ~dest rto
          | None -> ())
        due;
      sync_unacked_gauge t;
      let t1 = Tel.now t.tel.bundle in
      Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Reannounce Tracer.Begin t0;
      Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Reannounce Tracer.End t1);
  due

let unacked_announcements t = Announce.pending t.announce
