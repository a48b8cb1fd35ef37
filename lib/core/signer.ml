module Eddsa = Dsig_ed25519.Eddsa
module Rng = Dsig_util.Rng
module Domain_pool = Dsig_util.Domain_pool
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric
module Lifecycle = Dsig_telemetry.Lifecycle
module Trace = Dsig_telemetry.Trace_ctx
module Keystate = Dsig_store.Keystate

(* A one-time key ready to sign, with its signature's
   message-independent bytes, written when the batch was sealed: the
   key's public seed, nonce and batch proof, and the batch's header and
   EdDSA root signature (Alg. 1 line 11), shared by its keys. Signing
   touches no rng, proof or codec, and no proof keeps the batch's
   Merkle tree alive. *)
type prepared = { key : Onetime.t; key_bytes : string; batch_bytes : string }

let batch_id p = Wire.batch_id_of_bytes p.batch_bytes
let key_index p = Wire.key_index_of_bytes p.key_bytes

(* A sealed batch's keys, handed to the foreground whole. A pop is one
   fetch-and-add on [next] and clears the slot it took, so a spent key
   is not kept alive; an index at or past the end means the run is spent
   (or was closed by a cutover, which sets [next] to the end).
   [signal_at] is the pop index that leaves the group below S, set under
   [lock] whenever the keys queued behind the run change, so only that
   one pop takes the lock, to wake the driver. *)
type run = { keys : prepared option array; next : int Atomic.t; signal_at : int Atomic.t }

(* [current] is read without the lock; it and the rest change under
   [lock]. *)
type group = {
  members : int list; (* sorted *)
  current : run Atomic.t;
  pending : run Queue.t; (* sealed runs behind [current] *)
  mutable pending_keys : int;
}

(* A pre-generated next-generation batch awaiting cutover (key
   lifecycle plane): sealed and announced, but not yet serving keys. *)
type staged = { s_epoch : int; s_batch_id : int64; s_keys : run }

type stats = {
  signatures : int;
  batches : int;
  sign_waits : int;
  reannounces : int;
  requests_served : int;
}

(* Two locks, taken in the order [seal], then [lock]; [seal] is never
   taken while [lock] is held, and no callback ([send], the translog
   sink) runs under [lock].
   - [seal] serialises sealing: [next_batch], [rng], [Batch.make], the
     journal's seal and rotation records. A batch's keys are queued
     before [seal] is released, so a cutover is never followed by keys
     of a batch sealed earlier.
   - [lock] guards the groups' runs (except a pop's fetch-and-add),
     [staged], [epoch], [outbox] and [stopping]; [staged] and [epoch]
     change only under both. *)
type t = {
  cfg : Config.t;
  id : int;
  eddsa : Eddsa.secret_key;
  tel : Tel.t;
  store : Keystate.t option; (* the key-state journal; it has its own lock *)
  recovery : Keystate.report option;
  batch_timers : Batch.timers;
  translog : (signer:int -> op:string -> signature:string -> unit) option;
  pool : Domain_pool.t option;
  plane : Announce.Plane.t; (* the announcement control plane; it has its own lock *)
  rng : Rng.t; (* key seeds and nonces *)
  groups : group list; (* default group last, so smaller matches win *)
  default : group;
  send : (dest:int -> Batch.announcement -> unit) option;
  seal : Mutex.t;
  lock : Mutex.t;
  refill : Condition.t; (* under [lock]: a pop left a queue below S, or [stop] *)
  mutable next_batch : int64;
  mutable epoch : int; (* confirmed rotation epoch *)
  mutable staged : staged option;
  mutable stopping : bool;
  outbox : (Batch.announcement * int list) Queue.t;
  batches : int Atomic.t;
  signatures : int Atomic.t;
  sign_waits : int Atomic.t;
  h_sign : Metric.Histogram.t;
  h_batch_gen : Metric.Histogram.t;
  c_rot_staged : Metric.Counter.t;
  c_rot_cutovers : Metric.Counter.t;
  c_rot_dropped_keys : Metric.Counter.t;
  h_cutover : Metric.Histogram.t;
  g_epoch : Metric.Gauge.t;
}

let open_store tel cfg (options : Options.t) =
  match options.store with
  | None -> (None, None)
  | Some s -> (
      let store_cfg = Keystate.config ~fsync:s.fsync ~checkpoint_every:s.checkpoint_every s.dir in
      match Keystate.open_ ~telemetry:tel ~fingerprint:(Config.fingerprint cfg) store_cfg with
      | Error e -> failwith ("opening the key-state store: " ^ e)
      | Ok (ks, report) -> (Some ks, Some report))

let make_run keys =
  { keys; next = Atomic.make 0; signal_at = Atomic.make (Array.length keys) }

let empty_run () = make_run [||]
let spent r = Atomic.get r.next >= Array.length r.keys

(* Under [lock]. Keys the group can still hand out. *)
let depth g =
  let r = Atomic.get g.current in
  Array.length r.keys - Stdlib.min (Atomic.get r.next) (Array.length r.keys) + g.pending_keys

let queue_depth t =
  Mutex.protect t.lock (fun () -> List.fold_left (fun n g -> n + depth g) 0 t.groups)

let create cfg ~id ~eddsa ~rng ?send ?(groups = []) ?(prefix = "dsig_signer")
    ?(options = Options.default) ~verifiers () =
  let tel = options.telemetry in
  let store, recovery = open_store tel cfg options in
  let batches = Atomic.make 0 and signatures = Atomic.make 0 and sign_waits = Atomic.make 0 in
  let normalize members = List.sort_uniq compare members in
  let mk members =
    { members; current = Atomic.make (empty_run ()); pending = Queue.create (); pending_keys = 0 }
  in
  let default = mk (normalize verifiers) in
  (* smallest groups first so the "smallest group containing the hint"
     rule is a simple find *)
  let extra =
    groups
    |> List.map normalize
    |> List.filter (fun m -> m <> default.members)
    |> List.sort_uniq compare
    |> List.sort (fun a b -> compare (List.length a) (List.length b))
    |> List.map mk
  in
  let t =
  {
    cfg;
    id;
    eddsa;
    tel;
    store;
    recovery;
    batch_timers = Batch.timers tel;
    translog = options.translog;
    pool = options.parallel;
    plane = Announce.Plane.create tel ~prefix ~id ?sample_hook:options.sample_hook ();
    rng;
    groups = extra @ [ default ];
    default;
    send;
    seal = Mutex.create ();
    lock = Mutex.create ();
    refill = Condition.create ();
    (* resume past every batch id the previous incarnation sealed or
       proposed: fresh batch ids are the whole restart guarantee *)
    next_batch = (match recovery with Some r -> r.Keystate.next_batch_id | None -> 0L);
    epoch = (match recovery with Some r -> r.Keystate.epoch | None -> 0);
    staged = None;
    stopping = false;
    outbox = Queue.create ();
    batches;
    signatures;
    sign_waits;
    h_sign = Tel.histogram tel (prefix ^ "_sign_us");
    h_batch_gen = Tel.histogram tel (prefix ^ "_batch_gen_us");
    c_rot_staged = Tel.counter tel "dsig_rotation_staged_total";
    c_rot_cutovers = Tel.counter tel "dsig_rotation_cutovers_total";
    c_rot_dropped_keys = Tel.counter tel "dsig_rotation_dropped_keys_total";
    h_cutover = Tel.histogram tel "dsig_rotation_cutover_us";
    g_epoch = Tel.gauge tel "dsig_rotation_epoch";
  }
  in
  (* the probes capture only the counts, never the signer: the depth is
     read from the queues at each snapshot through a weak pointer *)
  Tel.probe tel ~owner:t (prefix ^ "_batches_total") (fun () -> Atomic.get batches);
  Tel.probe tel ~owner:t (prefix ^ "_signatures_total") (fun () -> Atomic.get signatures);
  Tel.probe tel ~owner:t (prefix ^ "_sign_waits_total") (fun () -> Atomic.get sign_waits);
  let self = Weak.create 1 in
  Weak.set self 0 (Some t);
  Tel.gauge_probe tel ~owner:t (prefix ^ "_queue_depth") (fun () ->
      match Weak.get self 0 with Some t -> float_of_int (queue_depth t) | None -> 0.0);
  t

let id t = t.id
let config t = t.cfg
let store t = t.store
let store_recovery t = t.recovery
let close t = Option.iter Keystate.close t.store
let control_plane t = t.plane
let unacked_announcements t = Announce.Plane.pending t.plane
let locked t f = Mutex.protect t.lock f

let stats t =
  {
    signatures = Atomic.get t.signatures;
    batches = Atomic.get t.batches;
    sign_waits = Atomic.get t.sign_waits;
    reannounces = Announce.Plane.reannounced t.plane;
    requests_served = Announce.Plane.requests_served t.plane;
  }

let drain_announcements t =
  locked t (fun () ->
      let items = List.of_seq (Queue.to_seq t.outbox) in
      Queue.clear t.outbox;
      items)

let drain_outbox t =
  List.concat_map (fun (ann, dests) -> List.map (fun d -> (d, ann)) dests) (drain_announcements t)

let subset hint members = List.for_all (fun v -> List.mem v members) hint

let select_group t hint =
  match hint with
  | None -> t.default
  | Some hint -> (
      let hint = List.sort_uniq compare hint in
      match List.find_opt (fun g -> subset hint g.members) t.groups with
      | Some g -> g
      | None -> t.default)

(* --- background plane: sealing, under [seal] --- *)

(* Under [lock]: re-aim the crossing after the keys behind [current]
   changed. A pop at index i leaves len - i - 1 + pending_keys keys, so
   the pop that leaves S - 1 is at len + pending_keys - S. *)
let aim_signal t g =
  let r = Atomic.get g.current in
  Atomic.set r.signal_at (Array.length r.keys + g.pending_keys - t.cfg.Config.queue_threshold)

(* Under [lock]: while the current run is spent, serve the next. *)
let advance t g =
  while spent (Atomic.get g.current) && not (Queue.is_empty g.pending) do
    let r = Queue.pop g.pending in
    g.pending_keys <- g.pending_keys - Array.length r.keys;
    Atomic.set g.current r
  done;
  aim_signal t g

(* Under [lock]. *)
let push t g r =
  Queue.add r g.pending;
  g.pending_keys <- g.pending_keys + Array.length r.keys;
  advance t g

(* Seal the next batch, announce it to [group] and hand its prepared
   keys to [into], under [lock] (Alg. 1 lines 6-11, batched per §4.4).
   The keys' message-independent wire bytes are written here, once. Caller holds
   [seal]. Returns the batch size. *)
let seal_batch t group ~batch_id ~into =
  let batch =
    Batch.make ~timers:t.batch_timers ?pool:t.pool t.cfg ~signer_id:t.id ~batch_id
      ~eddsa:t.eddsa ~rng:t.rng
  in
  (* journal and sync the seal before any of the batch's keys can sign;
     a sign writes nothing *)
  Option.iter (fun ks -> Keystate.seal ks ~batch_id) t.store;
  let batch_bytes =
    Wire.batch_bytes t.cfg ~signer_id:t.id ~batch_id ~root_sig:(Batch.root_signature batch)
  in
  let keys =
    Array.init (Batch.size batch) (fun index ->
        let key = Batch.key batch index in
        let nonce = Rng.bytes t.rng Wire.nonce_bytes in
        let key_bytes =
          Wire.key_bytes t.cfg ~public_seed:(Onetime.public_seed key) ~nonce
            ~batch_proof:(Batch.proof batch index)
        in
        Some { key; key_bytes; batch_bytes })
  in
  let ann = Batch.announcement t.cfg batch in
  let dests = List.filter (fun dest -> dest <> t.id) group.members in
  (* track before sending: over an in-process transport the ACK comes
     back synchronously, and it must find the batch registered *)
  if dests <> [] then Announce.Plane.track t.plane ann ~dests;
  Option.iter (fun send -> List.iter (fun dest -> send ~dest ann) dests) t.send;
  locked t (fun () ->
      into (make_run keys);
      if t.send = None then Queue.add (ann, dests) t.outbox);
  Atomic.incr t.batches;
  Array.length keys

let next_batch_id t =
  let batch_id = t.next_batch in
  t.next_batch <- Int64.succ batch_id;
  batch_id

(* Caller holds [seal]. *)
let refill t group =
  let t0 = Tel.now t.tel in
  ignore (seal_batch t group ~batch_id:(next_batch_id t) ~into:(push t group));
  Metric.Histogram.add t.h_batch_gen (Tel.now t.tel -. t0)

(* Under [lock]. A staged rotation suppresses refills of the dying
   default generation: cutover is imminent and would discard them. *)
let needs_refill t g =
  depth g < t.cfg.Config.queue_threshold && not (t.staged <> None && g == t.default)

let background_step t =
  Mutex.protect t.seal (fun () ->
      match locked t (fun () -> List.find_opt (needs_refill t) t.groups) with
      | None -> false
      | Some g ->
          refill t g;
          true)

let background_fill t = while background_step t do () done

let await_refill t =
  locked t (fun () ->
      while (not t.stopping) && not (List.exists (needs_refill t) t.groups) do
        Condition.wait t.refill t.lock
      done;
      not t.stopping)

let stop t =
  locked t (fun () ->
      t.stopping <- true;
      Condition.broadcast t.refill)

let queue_length t hint = locked t (fun () -> depth (select_group t (Some hint)))

(* --- zero-downtime rotation (key lifecycle plane) ---

   [stage_next_batch] pre-generates the next-generation batch off the
   critical path — journaling the propose record {e before} the seal so
   a crash at any point recovers to exactly one live generation — and
   announces its root over the ordinary announcement/ACK plane while
   the current batch keeps serving. [cutover] then atomically swaps:
   journal the confirm record, drop the dying batches' pending
   re-announcements, discard their queued keys, and start serving the
   staged generation. Both run under [seal]: by the swap, every batch
   sealed before the staged one has queued its keys, so the swap
   discards them all. *)

let stage_next_batch t =
  Mutex.protect t.seal (fun () ->
      if t.staged <> None then invalid_arg "Signer.stage_next_batch: rotation already staged";
      let epoch = t.epoch + 1 in
      let batch_id = next_batch_id t in
      Option.iter (fun ks -> Keystate.propose_rotation ks ~epoch ~batch_id) t.store;
      let size =
        seal_batch t t.default ~batch_id ~into:(fun keys ->
            t.staged <- Some { s_epoch = epoch; s_batch_id = batch_id; s_keys = keys })
      in
      Metric.Counter.incr t.c_rot_staged;
      Log.L.info (fun m ->
          m "signer %d: staged rotation epoch %d (batch %Ld, %d keys)" t.id epoch batch_id size);
      (epoch, batch_id))

let staged_rotation t =
  locked t (fun () -> Option.map (fun s -> (s.s_epoch, s.s_batch_id)) t.staged)

let staged_unacked t =
  Option.map
    (fun s -> Option.value ~default:0 (Announce.Plane.pending_for t.plane ~batch_id:s.s_batch_id))
    (locked t (fun () -> t.staged))

(* Caller holds [seal]. *)
let cutover_sealed t =
  match t.staged with
  | None -> invalid_arg "Signer.cutover: no staged rotation"
  | Some s ->
      let t0 = Tel.now t.tel in
      Option.iter
        (fun ks -> Keystate.confirm_rotation ks ~epoch:s.s_epoch ~batch_id:s.s_batch_id)
        t.store;
      (* the dying generation stops re-announcing and its queued keys
         are discarded — they can never sign under the new epoch *)
      Announce.Plane.drop_before t.plane ~batch_id:s.s_batch_id;
      let discarded =
        locked t (fun () ->
            (* closing a run ends its pops: one that took an index
               before the exchange keeps its key, any later one finds
               the run spent *)
            let close g =
              let r = Atomic.get g.current in
              let len = Array.length r.keys in
              let taken = Atomic.exchange r.next len in
              let n = len - Stdlib.min taken len + g.pending_keys in
              Queue.clear g.pending;
              g.pending_keys <- 0;
              Atomic.set g.current (if g == t.default then s.s_keys else empty_run ());
              aim_signal t g;
              n
            in
            let n = List.fold_left (fun n g -> n + close g) 0 t.groups in
            t.epoch <- s.s_epoch;
            t.staged <- None;
            Condition.signal t.refill;
            n)
      in
      if discarded > 0 then Metric.Counter.incr ~by:discarded t.c_rot_dropped_keys;
      Metric.Counter.incr t.c_rot_cutovers;
      Metric.Gauge.set t.g_epoch (float_of_int s.s_epoch);
      let t1 = Tel.now t.tel in
      Metric.Histogram.add t.h_cutover (t1 -. t0);
      Log.L.info (fun m ->
          m "signer %d: rotation cutover to epoch %d (batch %Ld, %d stale keys dropped)" t.id
            s.s_epoch s.s_batch_id discarded);
      s.s_epoch

let cutover t = Mutex.protect t.seal (fun () -> cutover_sealed t)
let epoch t = locked t (fun () -> t.epoch)

(* --- foreground plane --- *)

(* The queue is empty: under [seal], a driver domain may just have
   refilled it; if it is still empty, cut over to a staged generation
   (signing never blocks on rotation for longer than the cutover
   itself) or refill it on the critical path. *)
let refill_if_empty t group =
  Mutex.protect t.seal (fun () ->
      if locked t (fun () -> advance t group; depth group = 0) then
        if t.staged <> None && group == t.default then ignore (cutover_sealed t)
        else begin
          Log.L.warn (fun m -> m "signer %d: key queue empty, refilling on the critical path" t.id);
          refill t group
        end)

exception Spent

(* Take [group]'s next key (Alg. 1 line 16): one fetch-and-add on the
   current run. The pop that leaves the group below S wakes the driver.
   Raises [Spent] if the run has no key left. *)
let take t group =
  let r = Atomic.get group.current in
  let i = Atomic.fetch_and_add r.next 1 in
  if i >= Array.length r.keys then raise_notrace Spent;
  if i = Atomic.get r.signal_at then locked t (fun () -> Condition.signal t.refill);
  match Array.unsafe_get r.keys i with
  | Some p ->
      Array.unsafe_set r.keys i None;
      p
  | None -> assert false (* each index is taken once *)

(* The current run is spent: serve the next sealed run or, if the
   group has no key left, wait for one (counted once per sign). *)
let rec pop_slow t group ~waited =
  let r = Atomic.get group.current in
  let waits =
    not (locked t (fun () -> Atomic.get group.current != r || (advance t group; depth group > 0)))
  in
  if waits then begin
    if not waited then Atomic.incr t.sign_waits;
    refill_if_empty t group
  end;
  match take t group with p -> p | exception Spent -> pop_slow t group ~waited:(waited || waits)

let pop t group =
  match take t group with p -> p | exception Spent -> pop_slow t group ~waited:false

(* The signature of [msg] under [p]: {!Wire.sign} on the bytes written
   at seal time. Pure given its inputs, so [sign_many] runs it on worker
   domains. *)
let build { key; key_bytes; batch_bytes } msg = Wire.sign ~batch:batch_bytes ~key:key_bytes key msg

(* The accounting after a signature is built: translog sink, count,
   [<prefix>_sign_us] from [t0] to [t1] and lifecycle sign event. *)
let finish t ?t1 p ~msg ~wire ~t0 =
  (* transparency: the wire signature is recorded before it is handed
     to the caller, so every signature that leaves the process is in
     the log a verifier can demand inclusion proofs from *)
  Option.iter (fun f -> f ~signer:t.id ~op:msg ~signature:wire) t.translog;
  Atomic.incr t.signatures;
  let t1 = match t1 with Some t1 -> t1 | None -> Tel.now t.tel in
  Metric.Histogram.add t.h_sign (t1 -. t0);
  let lc = t.tel.Tel.lifecycle in
  if Lifecycle.enabled lc then
    Lifecycle.sign lc
      ~trace_id:(Trace.id ~signer:t.id ~batch_id:(batch_id p) ~key_index:(key_index p))
      ~origin:t.id ~birth_us:t0 ~dur_us:(t1 -. t0)

(* Sign with the next key of [hint]'s group and account for it; [k]
   receives the key and the start time. *)
let sign_with t hint msg k =
  let t0 = Tel.now t.tel in
  let p = pop t (select_group t hint) in
  let wire = build p msg in
  finish t p ~msg ~wire ~t0;
  k wire p t0

let sign t ?hint msg = sign_with t hint msg (fun wire _ _ -> wire)

let sign_ctx t ?hint msg =
  sign_with t hint msg (fun wire p t0 ->
      ( wire,
        Trace.make ~signer:t.id ~batch_id:(batch_id p) ~key_index:(key_index p) ~origin:t.id
          ~birth_us:t0 ))

(* Batch signing across the worker pool. The division of labor follows
   the shard-ownership invariant (DESIGN.md §12): the calling domain
   pops prepared keys (ascending key indices); worker domains then build
   signatures over contiguous index ranges — one range per shard, so no
   two domains ever touch the same one-time key; the calling domain
   folds back translog, stats, metrics and lifecycle accounting
   in input order. Without a pool this degrades to a plain loop over
   [sign]. *)
let sign_many t ?hint msgs =
  let n = Array.length msgs in
  match t.pool with
  | Some pool when n > 1 && Domain_pool.size pool > 1 ->
      let group = select_group t hint in
      let prepared = Array.init n (fun _ -> pop t group) in
      let results =
        Domain_pool.parallel_map pool
          ~f:(fun ~shard:_ (p, msg) ->
            let t0 = Tel.now t.tel in
            let wire = build p msg in
            (wire, t0, Tel.now t.tel))
          (Array.map2 (fun p msg -> (p, msg)) prepared msgs)
      in
      Array.iteri
        (fun i (wire, t0, t1) -> finish t ~t1 prepared.(i) ~msg:msgs.(i) ~wire ~t0)
        results;
      Array.map (fun (wire, _, _) -> wire) results
  | _ -> Array.map (fun msg -> sign t ?hint msg) msgs
