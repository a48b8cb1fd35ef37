module Eddsa = Dsig_ed25519.Eddsa
module Rng = Dsig_util.Rng
module Domain_pool = Dsig_util.Domain_pool
module Tel = Dsig_telemetry.Telemetry
module Tracer = Dsig_telemetry.Tracer
module Metric = Dsig_telemetry.Metric
module Keystate = Dsig_store.Keystate
module Core = Signer_core

type group = { members : int list (* sorted *); queue : Core.prepared Queue.t }

(* A pre-generated next-generation batch awaiting cutover (key
   lifecycle plane): sealed and announced, but not yet serving keys. *)
type staged = {
  s_epoch : int;
  s_batch_id : int64;
  s_keys : Core.prepared Queue.t;
  s_size : int;
  s_staged_at_us : float;
}

type stats = {
  signatures : int;
  batches : int;
  sync_refills : int;
  reannounces : int;
  requests_served : int;
}

type t = {
  core : Core.t;
  rng : Rng.t;
  groups : group list; (* default group last, so smaller matches win *)
  mutable epoch : int; (* confirmed rotation epoch *)
  mutable staged : staged option; (* pre-generated batch awaiting cutover *)
  send : dest:int -> Batch.announcement -> unit;
  outbox : (int * Batch.announcement) Queue.t;
  sync_refills : int ref;
  c_rot_staged : Metric.Counter.t;
  c_rot_cutovers : Metric.Counter.t;
  c_rot_dropped_keys : Metric.Counter.t;
  h_refill : Metric.Histogram.t;
  h_cutover : Metric.Histogram.t;
  g_epoch : Metric.Gauge.t;
}

let create cfg ~id ~eddsa ~rng ?send ?(groups = []) ?(options = Options.default) ~verifiers () =
  let core = Core.create cfg ~id ~eddsa ~prefix:"dsig_signer" options in
  let telemetry = core.tel in
  let sync_refills = ref 0 in
  Tel.probe telemetry "dsig_signer_sync_refills_total" (fun () -> !sync_refills);
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
  {
    core;
    rng;
    groups = extra @ [ default ];
    epoch = (match core.recovery with Some r -> r.Keystate.epoch | None -> 0);
    staged = None;
    send;
    outbox;
    sync_refills;
    c_rot_staged = Tel.counter telemetry "dsig_rotation_staged_total";
    c_rot_cutovers = Tel.counter telemetry "dsig_rotation_cutovers_total";
    c_rot_dropped_keys = Tel.counter telemetry "dsig_rotation_dropped_keys_total";
    h_refill = Tel.histogram telemetry "dsig_signer_refill_us";
    h_cutover = Tel.histogram telemetry "dsig_rotation_cutover_us";
    g_epoch = Tel.gauge telemetry "dsig_rotation_epoch";
  }

let id t = t.core.id
let config t = t.core.cfg
let eddsa_public_key t = Eddsa.public_key t.core.eddsa
let store t = t.core.store
let store_recovery t = t.core.recovery
let close t = Option.iter Keystate.close t.core.store

let stats t =
  let c = t.core in
  {
    signatures = Atomic.get c.signatures;
    batches = Atomic.get c.batches;
    sync_refills = !(t.sync_refills);
    reannounces = Announce.Plane.reannounced c.plane;
    requests_served = Announce.Plane.requests_served c.plane;
  }

let drain_outbox t =
  let items = List.of_seq (Queue.to_seq t.outbox) in
  Queue.clear t.outbox;
  items

let subset hint members = List.for_all (fun v -> List.mem v members) hint

let default_group t = List.nth t.groups (List.length t.groups - 1)

let select_group t hint =
  match hint with
  | None -> default_group t
  | Some hint -> (
      let hint = List.sort_uniq compare hint in
      match List.find_opt (fun g -> subset hint g.members) t.groups with
      | Some g -> g
      | None -> default_group t)

(* Seal batch [batch_id], multicast its announcement to [group] and
   queue its prepared keys on [q] (Alg. 1 lines 6-11, batched per
   §4.4). Returns the batch size. *)
let announce_batch t group ~batch_id q =
  let c = t.core in
  let batch = Core.make_batch c ~rng:t.rng ~batch_id in
  let ann = Batch.announcement c.cfg batch in
  let dests = List.filter (fun dest -> dest <> c.id) group.members in
  (* track before sending: over an in-process transport the ACK comes
     back synchronously, and it must find the batch registered *)
  if dests <> [] then Announce.Plane.track c.plane ann ~dests;
  List.iter (fun dest -> t.send ~dest ann) dests;
  Core.queue_keys c batch q;
  Batch.size batch

let refill t group =
  let c = t.core in
  Log.L.debug (fun m ->
      m "signer %d: refilling group [%s] (queue %d < S=%d)" c.id
        (String.concat "," (List.map string_of_int group.members))
        (Queue.length group.queue) c.cfg.Config.queue_threshold);
  let t0 = Tel.now c.tel in
  Tracer.record_at c.tel.Tel.tracer ~tag:c.id Tracer.Batch_gen Tracer.Begin t0;
  let size = announce_batch t group ~batch_id:(Core.next_batch_id c) group.queue in
  (* the gauge tracks prepared keys process-wide, so move it by deltas
     rather than overwriting other signers' contributions *)
  Metric.Gauge.add c.g_queue (float_of_int size);
  let t1 = Tel.now c.tel in
  Metric.Histogram.add t.h_refill (t1 -. t0);
  Tracer.record_at c.tel.Tel.tracer ~tag:c.id Tracer.Batch_gen Tracer.End t1

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
  let c = t.core in
  let t0 = Tel.now c.tel in
  let epoch = t.epoch + 1 in
  let batch_id = Core.next_batch_id c in
  Option.iter (fun ks -> Keystate.propose_rotation ks ~epoch ~batch_id) c.store;
  let keys = Queue.create () in
  let size = announce_batch t (default_group t) ~batch_id keys in
  t.staged <-
    Some
      { s_epoch = epoch; s_batch_id = batch_id; s_keys = keys; s_size = size; s_staged_at_us = t0 };
  Metric.Counter.incr t.c_rot_staged;
  Log.L.info (fun m ->
      m "signer %d: staged rotation epoch %d (batch %Ld, %d keys)" c.id epoch batch_id size);
  (epoch, batch_id)

let staged_rotation t = Option.map (fun s -> (s.s_epoch, s.s_batch_id)) t.staged

let staged_unacked t =
  Option.map
    (fun s ->
      Option.value ~default:0 (Announce.Plane.pending_for t.core.plane ~batch_id:s.s_batch_id))
    t.staged

let cutover t =
  match t.staged with
  | None -> invalid_arg "Signer.cutover: no staged rotation"
  | Some s ->
      let c = t.core in
      let t0 = Tel.now c.tel in
      Option.iter
        (fun ks -> Keystate.confirm_rotation ks ~epoch:s.s_epoch ~batch_id:s.s_batch_id)
        c.store;
      (* the dying generation stops re-announcing and its queued keys
         are discarded — they can never sign under the new epoch *)
      Announce.Plane.drop_before c.plane ~batch_id:s.s_batch_id;
      let discarded = ref 0 in
      List.iter
        (fun g ->
          discarded := !discarded + Queue.length g.queue;
          Queue.clear g.queue)
        t.groups;
      if !discarded > 0 then begin
        Metric.Counter.incr ~by:!discarded t.c_rot_dropped_keys;
        Metric.Gauge.add c.g_queue (float_of_int (- !discarded))
      end;
      let group = default_group t in
      Queue.transfer s.s_keys group.queue;
      Metric.Gauge.add c.g_queue (float_of_int s.s_size);
      t.epoch <- s.s_epoch;
      t.staged <- None;
      Metric.Counter.incr t.c_rot_cutovers;
      Metric.Gauge.set t.g_epoch (float_of_int t.epoch);
      let t1 = Tel.now c.tel in
      Metric.Histogram.add t.h_cutover (t1 -. t0);
      Log.L.info (fun m ->
          m "signer %d: rotation cutover to epoch %d (batch %Ld, %d stale keys dropped)" c.id
            t.epoch s.s_batch_id !discarded);
      t.epoch

let epoch t = t.epoch

let background_step t =
  match
    List.find_opt
      (fun g ->
        Queue.length g.queue < t.core.cfg.Config.queue_threshold
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

let sign_impl t ?hint msg =
  let c = t.core in
  let t0 = Tel.now c.tel in
  let group = select_group t hint in
  let synced = Queue.is_empty group.queue in
  if synced then begin
    (* a drained default queue with a staged rotation cuts over instead
       of refilling the dying generation — signing never blocks on
       rotation for longer than the cutover itself *)
    if t.staged <> None && group == default_group t then ignore (cutover t)
    else begin
      incr t.sync_refills;
      Log.L.warn (fun m ->
          m "signer %d: key queue empty, refilling on the critical path" c.id);
      refill t group
    end
  end;
  let p = Queue.pop group.queue in
  Metric.Gauge.add c.g_queue (-1.0);
  let span = if synced then Tracer.Sign_sync_refill else Tracer.Sign_fast in
  (Core.sign c ~span p ~nonce:(fresh_nonce t) ~t0 msg, p, t0)

let sign t ?hint msg =
  let wire, _, _ = sign_impl t ?hint msg in
  wire

let sign_ctx t ?hint msg =
  let wire, p, t0 = sign_impl t ?hint msg in
  (wire, Core.trace_ctx t.core p ~t0)

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
  let c = t.core in
  match c.pool with
  | Some pool when n > 1 && Domain_pool.size pool > 1 ->
      let group = select_group t hint in
      if t.staged <> None && Queue.length group.queue < n && group == default_group t then
        ignore (cutover t);
      while Queue.length group.queue < n do
        incr t.sync_refills;
        Log.L.warn (fun m ->
            m "signer %d: key queue short (%d < %d), refilling on the critical path" c.id
              (Queue.length group.queue) n);
        refill t group
      done;
      let prepared = Array.init n (fun _ -> Queue.pop group.queue) in
      (* durability invariant, batch form: every reservation is
         journaled — in the same ascending-index order a sequential
         signer would produce — before any signature is built, so no
         signature can leave the process without its record *)
      Array.iter (Core.reserve c) prepared;
      let nonces = Array.init n (fun _ -> fresh_nonce t) in
      let jobs = Array.init n (fun i -> (prepared.(i), nonces.(i), msgs.(i))) in
      let results =
        Domain_pool.parallel_map pool
          ~f:(fun ~shard:_ (p, nonce, msg) ->
            let t0 = Tel.now c.tel in
            let wire = Core.encode c p ~nonce msg in
            (wire, t0, Tel.now c.tel))
          jobs
      in
      Array.iteri
        (fun i (wire, t0, t1) -> Core.finish c ~t1 prepared.(i) ~msg:msgs.(i) ~wire ~t0)
        results;
      Metric.Gauge.add c.g_queue (float_of_int (-n));
      Array.map (fun (wire, _, _) -> wire) results
  | _ -> Array.map (fun msg -> sign t ?hint msg) msgs

let control_plane t = t.core.plane
let unacked_announcements t = Announce.Plane.pending t.core.plane
