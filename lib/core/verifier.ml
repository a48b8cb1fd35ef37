open Dsig_hbss
module Merkle = Dsig_merkle.Merkle
module Eddsa = Dsig_ed25519.Eddsa
module BU = Dsig_util.Bytesutil
module Rng = Dsig_util.Rng
module Retry = Dsig_util.Retry
module Domain_pool = Dsig_util.Domain_pool
module Tel = Dsig_telemetry.Telemetry
module Tracer = Dsig_telemetry.Tracer
module Metric = Dsig_telemetry.Metric
module Lifecycle = Dsig_telemetry.Lifecycle
module Trace = Dsig_telemetry.Trace_ctx
module Admission = Dsig_loadctl.Admission

type cached_batch = {
  root : string;
  keys : (string * string array) array option; (* (public_seed, elements) per index *)
  forests : Merkle.Forest.forest array option;
      (* merklified HORS: forests precomputed in the background plane so
         the critical path compares proofs against them (§5.2) *)
}

type signer_cache = {
  batches : (int64, cached_batch) Hashtbl.t;
  order : int64 Queue.t; (* FIFO eviction *)
}

type stats = {
  mutable fast : int;
  mutable slow : int;
  mutable eddsa_cache_hits : int;
  mutable rejected : int;
  mutable announcements : int;
  mutable slow_missing_batch : int;
  mutable slow_cache_miss : int;
  mutable requests_sent : int;
  mutable acks_sent : int;
  mutable ack_frames_sent : int;
  mutable eddsa_cache_evictions : int;
}

(* Histogram and gauge handles, valid on any domain. The counts live in
   [stats] and reach the registry as probes ([probe_stats]). *)
type tel = {
  bundle : Tel.t;
  h_fast : Metric.Histogram.t;
  h_slow : Metric.Histogram.t;
  h_deliver : Metric.Histogram.t;
  g_cached : Metric.Gauge.t;
}

(* Domain-safety discipline (DESIGN.md §12). Every mutable table has an
   owning mutex:

     [cache_mu]  -> cache (per-signer batch caches)
     [eddsa_mu]  -> eddsa_cache + eddsa_order
     [ctl_mu]    -> requested + pending_acks + ack_deadline + announce_srtt_us
     [stats_mu]  -> the public stats record
     [rng_mu]    -> rng (Rng is not thread-safe)

   Two hard rules:
   - NO mutex is ever held across a [send]: the control callback can
     re-enter this verifier synchronously (System's in-process
     loopback delivers a repair announcement inline), and OCaml
     mutexes are not reentrant.
   - Nesting is limited to ctl_mu -> rng_mu; everything else is taken
     and released in isolation, so no ordering cycle can form. *)
type t = {
  cfg : Config.t;
  id : int;
  pki : Pki.t;
  cache_mu : Mutex.t;
  cache : (int, signer_cache) Hashtbl.t;
  eddsa_mu : Mutex.t;
  eddsa_cache : (string, unit) Hashtbl.t;
  eddsa_order : string Queue.t; (* FIFO eviction for the EdDSA cache *)
  rng_mu : Mutex.t;
  rng : Rng.t; (* real entropy: batch-verification soundness + jitter *)
  control : (Batch.control -> unit) option;
  request_policy : Retry.policy;
  ctl_mu : Mutex.t;
  requested : (int * int64, Retry.state) Hashtbl.t; (* pull-repair pacing *)
  ack_delay : Options.ack_delay option;
  pending_acks : (int, Batch.ack list) Hashtbl.t; (* per signer, newest first *)
  mutable ack_deadline : float option; (* flush due time for pending acks *)
  mutable announce_srtt_us : float option; (* EWMA of announce RTT *)
  stats_mu : Mutex.t;
  stats : stats;
  pool : Domain_pool.t option;
  (* Optional load-control plane (Options.with_loadctl): admission is
     consulted before crypto on the verify paths and its pressure byte
     rides outbound ACK frames as [Batch.Credit]. The controller has
     its own internal mutex — safe from any domain. *)
  admission : Admission.t option;
  tel : tel;
}

let eddsa_cache_capacity = 4096

(* Publish every [stats] field as a registry counter. The probes capture
   only the record, so a dropped verifier's caches are not kept alive. *)
let probe_stats telemetry (s : stats) =
  List.iter
    (fun (name, read) -> Tel.probe telemetry name read)
    [
      ("dsig_verifier_fast_total", fun () -> s.fast);
      ("dsig_verifier_slow_total", fun () -> s.slow);
      ("dsig_verifier_rejected_total", fun () -> s.rejected);
      ("dsig_verifier_eddsa_cache_hits_total", fun () -> s.eddsa_cache_hits);
      ("dsig_verifier_announcements_total", fun () -> s.announcements);
      ("dsig_verifier_slow_missing_batch_total", fun () -> s.slow_missing_batch);
      ("dsig_verifier_slow_cache_miss_total", fun () -> s.slow_cache_miss);
      ("dsig_verifier_batch_requests_total", fun () -> s.requests_sent);
      ("dsig_verifier_acks_total", fun () -> s.acks_sent);
      ("dsig_verifier_ack_frames_total", fun () -> s.ack_frames_sent);
      ("dsig_verifier_eddsa_cache_evictions_total", fun () -> s.eddsa_cache_evictions);
    ]

let make_tel telemetry =
  {
    bundle = telemetry;
    h_fast = Tel.histogram telemetry "dsig_verifier_fast_us";
    h_slow = Tel.histogram telemetry "dsig_verifier_slow_us";
    h_deliver = Tel.histogram telemetry "dsig_verifier_deliver_us";
    g_cached = Tel.gauge telemetry "dsig_verifier_cached_batches";
  }

let create cfg ~id ~pki ?control ?(options = Options.default) () =
  let telemetry = options.Options.telemetry in
  let request_policy = options.Options.request_policy in
  let stats =
    {
      fast = 0;
      slow = 0;
      eddsa_cache_hits = 0;
      rejected = 0;
      announcements = 0;
      slow_missing_batch = 0;
      slow_cache_miss = 0;
      requests_sent = 0;
      acks_sent = 0;
      ack_frames_sent = 0;
      eddsa_cache_evictions = 0;
    }
  in
  probe_stats telemetry stats;
  {
    cfg;
    id;
    pki;
    cache_mu = Mutex.create ();
    cache = Hashtbl.create 16;
    eddsa_mu = Mutex.create ();
    eddsa_cache = Hashtbl.create 256;
    eddsa_order = Queue.create ();
    rng_mu = Mutex.create ();
    rng = Rng.system ();
    control;
    request_policy;
    ctl_mu = Mutex.create ();
    requested = Hashtbl.create 16;
    ack_delay = options.Options.ack_delay;
    pending_acks = Hashtbl.create 8;
    ack_deadline = None;
    announce_srtt_us = None;
    stats_mu = Mutex.create ();
    stats;
    pool = options.Options.parallel;
    admission = options.Options.loadctl;
    tel = make_tel telemetry;
  }

let stats t = t.stats
let with_stats t f = Mutex.protect t.stats_mu (fun () -> f t.stats)

let now t = Tel.now t.tel.bundle

(* --- batch cache (under cache_mu) --- *)

let signer_cache_locked t signer =
  match Hashtbl.find_opt t.cache signer with
  | Some c -> c
  | None ->
      let c = { batches = Hashtbl.create 16; order = Queue.create () } in
      Hashtbl.add t.cache signer c;
      c

let cached_batches t ~signer =
  Mutex.protect t.cache_mu (fun () ->
      match Hashtbl.find_opt t.cache signer with
      | None -> 0
      | Some c -> Hashtbl.length c.batches)

let insert_batch t ~signer ~batch_id entry =
  let delta =
    Mutex.protect t.cache_mu (fun () ->
        let c = signer_cache_locked t signer in
        if Hashtbl.mem c.batches batch_id then 0
        else begin
          Hashtbl.replace c.batches batch_id entry;
          Queue.add batch_id c.order;
          let evicted = ref 0 in
          while Hashtbl.length c.batches > t.cfg.Config.cache_batches do
            let victim = Queue.pop c.order in
            Hashtbl.remove c.batches victim;
            incr evicted
          done;
          1 - !evicted
        end)
  in
  if delta <> 0 then Metric.Gauge.add t.tel.g_cached (float_of_int delta)

let lookup_batch t ~signer ~batch_id =
  (* the returned record is immutable and never mutated after insert, so
     it stays valid for the caller even if evicted concurrently *)
  Mutex.protect t.cache_mu (fun () ->
      match Hashtbl.find_opt t.cache signer with
      | None -> None
      | Some c -> Hashtbl.find_opt c.batches batch_id)

(* Revocation enforcement: drop a signer's cached roots so a stolen
   announcement admitted before the revocation arrived cannot keep
   serving the fast path. With [from_batch] only batches at or past the
   boundary go; without it the whole signer cache is purged. *)
let purge_signer ?from_batch t ~signer =
  let purged =
    Mutex.protect t.cache_mu (fun () ->
        match Hashtbl.find_opt t.cache signer with
        | None -> 0
        | Some c -> (
            match from_batch with
            | None ->
                let n = Hashtbl.length c.batches in
                Hashtbl.remove t.cache signer;
                n
            | Some boundary ->
                let victims =
                  Hashtbl.fold
                    (fun id _ acc -> if Int64.compare id boundary >= 0 then id :: acc else acc)
                    c.batches []
                in
                List.iter (Hashtbl.remove c.batches) victims;
                (* rebuild the eviction order without the victims so FIFO
                   accounting stays consistent with the table *)
                let keep = Queue.create () in
                Queue.iter (fun id -> if Hashtbl.mem c.batches id then Queue.add id keep) c.order;
                Queue.clear c.order;
                Queue.transfer keep c.order;
                List.length victims))
  in
  (* stop pacing pull requests for anything we just dropped: the signer
     is revoked, repair would only re-admit what we purged *)
  Mutex.protect t.ctl_mu (fun () ->
      let stale =
        Hashtbl.fold
          (fun ((s, b) as key) _ acc ->
            let gone =
              s = signer
              && match from_batch with None -> true | Some bd -> Int64.compare b bd >= 0
            in
            if gone then key :: acc else acc)
          t.requested []
      in
      List.iter (Hashtbl.remove t.requested) stale);
  if purged > 0 then Metric.Gauge.add t.tel.g_cached (float_of_int (-purged));
  purged

(* EdDSA verification with the bulk-verification cache of §4.4: a hit
   replaces a full verification by a 32-byte table lookup. The expensive
   [Eddsa.verify] runs outside [eddsa_mu]. *)
let eddsa_verify_cached t pk msg signature =
  if not t.cfg.Config.eddsa_verify_cache then Eddsa.verify pk msg signature
  else begin
    let key = Dsig_hashes.Blake3.digest (pk ^ signature ^ msg) in
    if Mutex.protect t.eddsa_mu (fun () -> Hashtbl.mem t.eddsa_cache key) then begin
      with_stats t (fun s -> s.eddsa_cache_hits <- s.eddsa_cache_hits + 1);
      true
    end
    else if Eddsa.verify pk msg signature then begin
      (* bounded FIFO eviction, one victim per insert — a full wipe
         would re-verify up to 4096 entries right after (latency cliff) *)
      let evicted =
        Mutex.protect t.eddsa_mu (fun () ->
            if Hashtbl.mem t.eddsa_cache key then 0
            else begin
              let n = ref 0 in
              while Hashtbl.length t.eddsa_cache >= eddsa_cache_capacity do
                let victim = Queue.pop t.eddsa_order in
                Hashtbl.remove t.eddsa_cache victim;
                incr n
              done;
              Hashtbl.replace t.eddsa_cache key ();
              Queue.add key t.eddsa_order;
              !n
            end)
      in
      if evicted > 0 then
        with_stats t (fun s -> s.eddsa_cache_evictions <- s.eddsa_cache_evictions + evicted);
      true
    end
    else false
  end

(* Lifecycle announce-plane event: one admit per batch, joining every
   signature of the batch via the sentinel trace id. *)
let lifecycle_admit t (ann : Batch.announcement) ~latency_us =
  let lc = t.tel.bundle.Tel.lifecycle in
  if Lifecycle.enabled lc then
    Lifecycle.admit lc ~signer:ann.Batch.signer_id ~batch_id:ann.Batch.ann_batch_id ~latency_us

(* --- acknowledgement batching (Options.with_ack_delay) ---

   With an ack delay configured, admits enqueue their ACKs per signer
   and a deadline is armed at [min cap_us (srtt_fraction * srtt)]; the
   transport pump calls [flush_acks] which emits one coalesced
   [Batch.Acks] frame per signer. Without a delay (or before the first
   RTT estimate) ACKs go out immediately — the historical behavior. *)

let ack_frame_sent t ~acks =
  with_stats t (fun s ->
      s.acks_sent <- s.acks_sent + acks;
      s.ack_frames_sent <- s.ack_frames_sent + 1)

let pending_ack_count t =
  Mutex.protect t.ctl_mu (fun () ->
      Hashtbl.fold (fun _ acks n -> n + List.length acks) t.pending_acks 0)

(* With a load controller, every outbound acknowledgement frame carries
   the verifier's current pressure byte ([Batch.Credit]) so loaded
   destinations pace their signers down; without one, the historical
   [Ack]/[Acks] frames go out unchanged. *)
let control_frame_for_acks t acks =
  match t.admission with
  | Some a -> Batch.Credit { pressure = Admission.pressure a; acks }
  | None -> ( match acks with [ a ] -> Batch.Ack a | l -> Batch.Acks l)

let flush_acks ?(force = false) t ~now =
  match t.control with
  | None ->
      Mutex.protect t.ctl_mu (fun () ->
          Hashtbl.reset t.pending_acks;
          t.ack_deadline <- None);
      0
  | Some send ->
      (* Collect the frames under the lock, send them after releasing
         it: [send] can synchronously re-enter this verifier (repair
         announcement -> deliver -> enqueue_ack), which used to mutate
         [pending_acks] in the middle of the Hashtbl.iter below — lost
         or doubled ACKs single-domain, undefined multi-domain. *)
      let frames =
        Mutex.protect t.ctl_mu (fun () ->
            let due =
              Hashtbl.length t.pending_acks > 0
              && (force || match t.ack_deadline with None -> true | Some d -> now >= d)
            in
            if not due then []
            else begin
              let fs = Hashtbl.fold (fun _ acks acc -> List.rev acks :: acc) t.pending_acks [] in
              Hashtbl.reset t.pending_acks;
              t.ack_deadline <- None;
              fs
            end)
      in
      List.iter
        (fun acks ->
          ack_frame_sent t ~acks:(List.length acks);
          send (control_frame_for_acks t acks))
        frames;
      List.length frames

let ack_hold_us t =
  match t.ack_delay with
  | None -> 0.0
  | Some d -> (
      match Mutex.protect t.ctl_mu (fun () -> t.announce_srtt_us) with
      | None -> 0.0 (* no estimate yet: ACK immediately, the safe default *)
      | Some srtt -> Float.min d.Options.cap_us (d.Options.srtt_fraction *. srtt))

let enqueue_ack t (ack : Batch.ack) ~hold =
  let deadline = now t +. hold in
  Mutex.protect t.ctl_mu (fun () ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt t.pending_acks ack.Batch.ack_signer) in
      (* redeliveries re-ack the same batch; hold a single copy per window *)
      if not (List.mem ack cur) then
        Hashtbl.replace t.pending_acks ack.Batch.ack_signer (ack :: cur);
      if t.ack_deadline = None then t.ack_deadline <- Some deadline)

let send_or_enqueue_ack t ack =
  match t.control with
  | None -> ()
  | Some send ->
      let hold = ack_hold_us t in
      if hold <= 0.0 then begin
        ack_frame_sent t ~acks:1;
        send (control_frame_for_acks t [ ack ])
      end
      else enqueue_ack t ack ~hold

let announce_srtt_us t = Mutex.protect t.ctl_mu (fun () -> t.announce_srtt_us)

let observe_announce_latency t ~sent_us ~now =
  (* one-way announce latency doubled approximates the announce/ACK
     round trip the signer's re-announce timer is pacing against *)
  let sample = 2.0 *. Float.max 0.0 (now -. sent_us) in
  Mutex.protect t.ctl_mu (fun () ->
      t.announce_srtt_us <-
        Some
          (match t.announce_srtt_us with
          | None -> sample
          | Some v -> (0.875 *. v) +. (0.125 *. sample)))

(* Cache an announcement whose EdDSA root signature has already been
   checked: validate any full keys against the signed leaves and insert.
   [send_ack:false] lets a caller that admits many batches at once
   coalesce the acknowledgements into one [Batch.Acks] frame instead. *)
let admit_verified ?(send_ack = true) t (ann : Batch.announcement) root =
  begin
    with_stats t (fun s -> s.announcements <- s.announcements + 1);
        (* When full keys ride along (bandwidth reduction off), check
           they match the signed leaves before trusting them for the
           comparison-only fast path. *)
        let keys, forests =
          match ann.Batch.full_keys with
          | None -> (None, None)
          | Some keys when Array.length keys <> Array.length ann.Batch.ann_leaves -> (None, None)
          | Some keys -> (
              match t.cfg.Config.hbss with
              | Config.Hors_merklified { trees; _ } ->
                  (* precompute the forests (background plane, §5.2) and
                     check each key matches its signed leaf *)
                  let forests =
                    Array.map (fun (_, elements) -> Merkle.Forest.build ~trees elements) keys
                  in
                  let consistent =
                    Array.for_all2
                      (fun ((seed, _), forest) leaf ->
                        BU.equal_ct leaf
                          (Onetime.merklified_leaf ~public_seed:seed
                             ~roots:(Merkle.Forest.roots forest)))
                      (Array.map2 (fun k f -> (k, f)) keys forests)
                      ann.Batch.ann_leaves
                  in
                  if consistent then (Some keys, Some forests) else (None, None)
              | Config.Wots _ | Config.Hors_factorized _ ->
                  let consistent =
                    Array.for_all2
                      (fun (seed, elements) leaf ->
                        BU.equal_ct leaf
                          (Dsig_hashes.Blake3.digest
                             (String.concat "" (seed :: Array.to_list elements))))
                      keys ann.Batch.ann_leaves
                  in
                  if consistent then (Some keys, None) else (None, None))
        in
    insert_batch t ~signer:ann.Batch.signer_id ~batch_id:ann.Batch.ann_batch_id
      { root; keys; forests };
    (* the gap (if any) is repaired: stop pacing pull requests for it *)
    Mutex.protect t.ctl_mu (fun () ->
        Hashtbl.remove t.requested (ann.Batch.signer_id, ann.Batch.ann_batch_id));
    (* acknowledge so the signer stops re-announcing; sent on every
       successful delivery (idempotent) because a previous ACK may have
       been lost in transit *)
    if send_ack then
      send_or_enqueue_ack t
        {
          Batch.ack_verifier = t.id;
          ack_signer = ann.Batch.signer_id;
          ack_batch = ann.Batch.ann_batch_id;
        }
  end

(* Root implied by an announcement, plus the exact EdDSA-signed string. *)
let announcement_root (ann : Batch.announcement) =
  let root = Merkle.root (Merkle.build ann.Batch.ann_leaves) in
  let msg =
    Batch.root_message ~signer_id:ann.Batch.signer_id ~batch_id:ann.Batch.ann_batch_id ~root
  in
  (root, msg)

(* Announcements and repair replies are control-class traffic: the
   admission controller accounts them (offered totals, refill clock)
   but never sheds them — losing an announcement would only convert
   future fast-path verifications into slow paths, making overload
   worse. The Shed arm is defensive. *)
let control_admitted t =
  match t.admission with
  | None -> true
  | Some a -> (
      match Admission.admit a ~now_us:(now t) Admission.Control with
      | Admission.Admit -> true
      | Admission.Shed -> false)

let deliver ?sent_us t (ann : Batch.announcement) =
  (match sent_us with
  | Some s -> observe_announce_latency t ~sent_us:s ~now:(now t)
  | None -> ());
  if not (control_admitted t) then false
  else
  match Pki.allowed t.pki ~id:ann.Batch.signer_id ~batch:ann.Batch.ann_batch_id with
  | None ->
      Log.L.warn (fun m ->
          m "verifier %d: dropping announcement from unknown/revoked signer %d" t.id
            ann.Batch.signer_id);
      false
  | Some pk ->
      let t0 = now t in
      Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Announce_delivery Tracer.Begin t0;
      let root, msg = announcement_root ann in
      let ok =
        if Eddsa.verify pk msg ann.Batch.root_sig then begin
          admit_verified t ann root;
          true
        end
        else false
      in
      let t1 = now t in
      Metric.Histogram.add t.tel.h_deliver (t1 -. t0);
      Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Announce_delivery Tracer.End t1;
      (* announce-to-admit: from the wire send stamp when the transport
         supplies one, else just the local delivery processing time *)
      if ok then
        lifecycle_admit t ann ~latency_us:(t1 -. Option.value sent_us ~default:t0);
      ok

let split_rng t = Mutex.protect t.rng_mu (fun () -> Rng.split t.rng)

(* Catch-up path: check many announcements' EdDSA root signatures with
   one randomized batch verification per worker domain (§4.4's
   amortization, applied to the background plane); on a chunk failure,
   fall back to individual delivery so one bad announcement cannot
   poison the rest. All admits, ACKs and other control traffic happen
   on the calling domain — the workers only run crypto. *)
let deliver_many t anns =
  let anns = List.filter (fun _ -> control_admitted t) anns in
  let entries =
    List.filter_map
      (fun ann ->
        match Pki.allowed t.pki ~id:ann.Batch.signer_id ~batch:ann.Batch.ann_batch_id with
        | None -> None
        | Some pk ->
            let root, msg = announcement_root ann in
            Some (ann, root, pk, msg))
      anns
  in
  let n = List.length entries in
  let triples_of chunk =
    List.map (fun (ann, _, pk, msg) -> (pk, msg, ann.Batch.root_sig)) chunk
  in
  let t0 = now t in
  (* The randomized batch-verification coefficients must be
     unpredictable to the adversary (§4.4's soundness argument): draw
     them from the per-verifier entropy-seeded generator, never from a
     hash of public values. Each worker gets its own pre-split rng. *)
  let groups =
    match t.pool with
    | Some pool when n > 1 && Domain_pool.size pool > 1 ->
        let arr = Array.of_list entries in
        let shards = Stdlib.min (Domain_pool.size pool) n in
        let chunks =
          Array.init shards (fun s ->
              let lo = s * n / shards and hi = (s + 1) * n / shards in
              Array.to_list (Array.sub arr lo (hi - lo)))
        in
        let rngs = Array.init shards (fun _ -> split_rng t) in
        let oks =
          Domain_pool.parallel_map pool
            ~f:(fun ~shard chunk -> chunk <> [] && Eddsa.verify_batch rngs.(shard) (triples_of chunk))
            chunks
        in
        Array.to_list (Array.map2 (fun ok chunk -> (ok, chunk)) oks chunks)
    | _ -> [ (entries <> [] && Eddsa.verify_batch (split_rng t) (triples_of entries), entries) ]
  in
  let t1 = now t in
  let admitted = List.concat_map (fun (ok, chunk) -> if ok then chunk else []) groups in
  let failed = List.concat_map (fun (ok, chunk) -> if ok then [] else chunk) groups in
  List.iter
    (fun (ann, root, _, _) ->
      admit_verified ~send_ack:false t ann root;
      lifecycle_admit t ann ~latency_us:(t1 -. t0))
    admitted;
  (* coalesce acknowledgements: one Acks frame per signer instead of
     one Ack frame per batch (reverse-path traffic in wide fan-outs) *)
  (match (t.control, admitted) with
  | None, _ | _, [] -> ()
  | Some send, _ ->
      let by_signer = Hashtbl.create 8 in
      List.iter
        (fun (ann, _, _, _) ->
          let s = ann.Batch.signer_id in
          let ack =
            { Batch.ack_verifier = t.id; ack_signer = s; ack_batch = ann.Batch.ann_batch_id }
          in
          Hashtbl.replace by_signer s
            (ack :: Option.value ~default:[] (Hashtbl.find_opt by_signer s)))
        admitted;
      let hold = ack_hold_us t in
      if hold > 0.0 then
        Hashtbl.iter
          (fun _ acks -> List.iter (fun a -> enqueue_ack t a ~hold) (List.rev acks))
          by_signer
      else begin
        (* collect first: [send] may re-enter and must not observe a
           half-iterated table (and by_signer is local anyway) *)
        let frames = Hashtbl.fold (fun _ acks acc -> List.rev acks :: acc) by_signer [] in
        List.iter
          (fun acks ->
            ack_frame_sent t ~acks:(List.length acks);
            send (control_frame_for_acks t acks))
          frames
      end);
  (* failed chunks: per-announcement delivery isolates the bad one(s) *)
  List.length admitted
  + List.length (List.filter (fun (ann, _, _, _) -> deliver t ann) failed)

(* Reconstruct the full HORS public key from revealed secrets plus the
   complement carried in a factorized signature. Returns [None] when the
   piece counts cannot fit together. *)
let reassemble_hors (p : Params.Hors.t) ~hash ~public_seed ~(hsig : Hors.signature) ~complement
    msg =
  let indices = Hors.message_indices p ~public_seed ~nonce:hsig.Hors.nonce msg in
  let elements = Array.make p.Params.Hors.t "" in
  let conflict = ref false in
  Array.iteri
    (fun j idx ->
      let h = Dsig_hashes.Hash.digest hash ~length:p.Params.Hors.n hsig.Hors.revealed.(j) in
      if elements.(idx) = "" then elements.(idx) <- h
      else if not (BU.equal_ct elements.(idx) h) then conflict := true)
    indices;
  let missing = ref 0 in
  Array.iter (fun e -> if e = "" then incr missing) elements;
  if !conflict || Array.length complement <> !missing then None
  else begin
    let next = ref 0 in
    Array.iteri
      (fun i e ->
        if e = "" then begin
          elements.(i) <- complement.(!next);
          incr next
        end)
      elements;
    Some elements
  end

(* Check a compressed merklified signature: the message's selected
   indices, grouped by tree, must match the multiproofs exactly, and
   each multiproof must verify against its tree root with the hashed
   revealed secrets as leaf contents. *)
let verify_merk_multiproofs t ~(p : Params.Hors.t) ~trees ~public_seed ~roots ~mps
    (hsig : Hors.signature) msg =
  Array.length hsig.Hors.revealed = p.Params.Hors.k
  && Array.for_all (fun e -> String.length e = p.Params.Hors.n) hsig.Hors.revealed
  && Array.length roots = trees
  &&
  let per_tree = p.Params.Hors.t / trees in
  let indices = Hors.message_indices p ~public_seed ~nonce:hsig.Hors.nonce msg in
  (* element content per global index, rejecting conflicting reveals *)
  let elements = Hashtbl.create 16 in
  let conflict = ref false in
  Array.iteri
    (fun j idx ->
      let h = Dsig_hashes.Hash.digest t.cfg.Config.hash ~length:p.Params.Hors.n hsig.Hors.revealed.(j) in
      match Hashtbl.find_opt elements idx with
      | Some h' when not (BU.equal_ct h h') -> conflict := true
      | Some _ -> ()
      | None -> Hashtbl.add elements idx h)
    indices;
  (not !conflict)
  &&
  (* expected per-tree index groups *)
  let expected = Hashtbl.create 8 in
  Hashtbl.iter
    (fun idx _ ->
      let tr = idx / per_tree in
      let cur = Option.value ~default:[] (Hashtbl.find_opt expected tr) in
      Hashtbl.replace expected tr (List.sort_uniq compare ((idx mod per_tree) :: cur)))
    elements;
  List.length mps = Hashtbl.length expected
  && List.for_all
       (fun (tr, mp) ->
         match Hashtbl.find_opt expected tr with
         | None -> false
         | Some idx_list ->
             Merkle.Multiproof.indices mp = idx_list
             && Merkle.Multiproof.verify ~root:roots.(tr)
                  ~leaves:(List.map (fun i -> (i, Hashtbl.find elements ((tr * per_tree) + i))) idx_list)
                  mp)
       mps

(* Compute the batch leaf implied by a signature, performing all
   scheme-internal checks on the way. [None] means reject. *)
let implied_leaf t (w : Wire.t) msg =
  match (t.cfg.Config.hbss, w.Wire.body) with
  | Config.Wots p, Wire.Wots_body s ->
      if
        String.length s.Wots.elements = Params.Wots.signature_bytes p
        && String.length s.Wots.nonce = 16
      then
        Some
          (Wots.recover_public_key_digest ~hash:t.cfg.Config.hash p
             ~public_seed:w.Wire.public_seed s msg)
      else None
  | Config.Hors_factorized p, Wire.Hors_fact_body { hsig; complement } ->
      if
        Array.length hsig.Hors.revealed = p.Params.Hors.k
        && Array.for_all (fun e -> String.length e = p.Params.Hors.n) hsig.Hors.revealed
        && Array.for_all (fun e -> String.length e = p.Params.Hors.n) complement
      then
        Option.map
          (fun elements ->
            Dsig_hashes.Blake3.digest
              (String.concat "" (w.Wire.public_seed :: Array.to_list elements)))
          (reassemble_hors p ~hash:t.cfg.Config.hash ~public_seed:w.Wire.public_seed ~hsig
             ~complement msg)
      else None
  | Config.Hors_merklified { params = p; trees = _ }, Wire.Hors_merk_body { hsig; roots; proofs }
    ->
      let roots_list = Array.to_list roots in
      if
        Hors.verify_with_forest ~hash:t.cfg.Config.hash p ~public_seed:w.Wire.public_seed
          ~roots:roots_list ~proofs hsig msg
      then Some (Onetime.merklified_leaf ~public_seed:w.Wire.public_seed ~roots:roots_list)
      else None
  | Config.Hors_merklified { params = p; trees }, Wire.Hors_merk_mp_body { hsig; roots; mps }
    when t.cfg.Config.compress_proofs ->
      let roots_list = Array.to_list roots in
      if verify_merk_multiproofs t ~p ~trees ~public_seed:w.Wire.public_seed ~roots ~mps hsig msg
      then Some (Onetime.merklified_leaf ~public_seed:w.Wire.public_seed ~roots:roots_list)
      else None
  | _ -> None

(* Forest roots vs wire roots, constant-time per digest and without the
   Array.of_list allocation polymorphic compare needed. *)
let roots_equal_ct roots_list roots_array =
  List.length roots_list = Array.length roots_array
  &&
  let i = ref 0 in
  List.for_all
    (fun r ->
      let ok = BU.equal_ct r roots_array.(!i) in
      incr i;
      ok)
    roots_list

(* Merklified fast path: the announcement carried full keys and the
   background plane precomputed the forests, so the critical path hashes
   only the k revealed secrets and compares the signature's roots and
   proofs against the precomputed forest — "mere string comparisons"
   (§5.2). *)
let merklified_fast_path t (w : Wire.t) msg =
  match (t.cfg.Config.hbss, w.Wire.body) with
  | Config.Hors_merklified { params = p; _ }, Wire.Hors_merk_mp_body { hsig; roots; mps } -> (
      match lookup_batch t ~signer:w.Wire.signer_id ~batch_id:w.Wire.batch_id with
      | Some { keys = Some keys; forests = Some forests; _ }
        when Wire.key_index w < Array.length keys ->
          let idx = Wire.key_index w in
          let seed, elements = keys.(idx) in
          let forest = forests.(idx) in
          let ok =
            BU.equal_ct seed w.Wire.public_seed
            && roots_equal_ct (Merkle.Forest.roots forest) roots
            && Hors.verify_with_elements ~hash:t.cfg.Config.hash p
                 ~public_seed:w.Wire.public_seed ~elements hsig msg
            && begin
                 (* the multiproofs must cover exactly the index groups
                    the message selects, and match the precomputed
                    forest structurally (string comparisons) *)
                 let per_tree = p.Params.Hors.t / List.length (Merkle.Forest.roots forest) in
                 let indices =
                   Hors.message_indices p ~public_seed:w.Wire.public_seed
                     ~nonce:hsig.Hors.nonce msg
                 in
                 let expected = Hashtbl.create 8 in
                 Array.iter
                   (fun idx ->
                     let tr = idx / per_tree in
                     let cur = Option.value ~default:[] (Hashtbl.find_opt expected tr) in
                     if not (List.mem (idx mod per_tree) cur) then
                       Hashtbl.replace expected tr ((idx mod per_tree) :: cur))
                   indices;
                 List.length mps = Hashtbl.length expected
                 && List.for_all
                      (fun (tr, mp) ->
                        (match Hashtbl.find_opt expected tr with
                        | Some l -> List.sort_uniq compare l = Merkle.Multiproof.indices mp
                        | None -> false)
                        && BU.equal_ct
                             (Merkle.Multiproof.encode
                                (Merkle.Multiproof.create (Merkle.Forest.tree forest tr)
                                   (Merkle.Multiproof.indices mp)))
                             (Merkle.Multiproof.encode mp))
                      mps
               end
          in
          Some ok
      | _ -> None)
  | Config.Hors_merklified { params = p; _ }, Wire.Hors_merk_body { hsig; roots; proofs } -> (
      match lookup_batch t ~signer:w.Wire.signer_id ~batch_id:w.Wire.batch_id with
      | Some { keys = Some keys; forests = Some forests; _ }
        when Wire.key_index w < Array.length keys ->
          let idx = Wire.key_index w in
          let seed, elements = keys.(idx) in
          let forest = forests.(idx) in
          let ok =
            BU.equal_ct seed w.Wire.public_seed
            && roots_equal_ct (Merkle.Forest.roots forest) roots
            && Array.length proofs = p.Params.Hors.k
            && Hors.verify_with_elements ~hash:t.cfg.Config.hash p
                 ~public_seed:w.Wire.public_seed ~elements hsig msg
            &&
            let indices =
              Hors.message_indices p ~public_seed:w.Wire.public_seed ~nonce:hsig.Hors.nonce msg
            in
            Array.for_all2
              (fun (tree, pf) expected_idx ->
                let etree, epf = Merkle.Forest.proof forest expected_idx in
                tree = etree
                && BU.equal_ct (Merkle.encode_proof pf) (Merkle.encode_proof epf))
              proofs indices
          in
          Some ok
      | _ -> None)
  | _ -> None

let reject t =
  with_stats t (fun s -> s.rejected <- s.rejected + 1);
  false

(* Pull repair: emit a Batch_request for a gap in the announcement
   cache, paced by the per-gap retry state so a burst of slow-path
   verifications against the same missing batch sends one request, not
   hundreds. *)
let request_repair t ~signer ~batch_id =
  match t.control with
  | None -> ()
  | Some send ->
      let now = now t in
      let key = (signer, batch_id) in
      let emit =
        Mutex.protect t.ctl_mu (fun () ->
            match Hashtbl.find_opt t.requested key with
            | None ->
                (* unconditional size bound: gap states are tiny but an
                   attacker could mint unknown (signer, batch) pairs *)
                if Hashtbl.length t.requested >= 4096 then Hashtbl.reset t.requested;
                let st =
                  Mutex.protect t.rng_mu (fun () -> Retry.start t.request_policy ~rng:t.rng ~now)
                in
                Hashtbl.replace t.requested key st;
                true
            | Some st ->
                if Retry.due st ~now then begin
                  let st' =
                    Mutex.protect t.rng_mu (fun () ->
                        match Retry.next t.request_policy ~rng:t.rng st ~now with
                        | Some st' -> st'
                        | None ->
                            (* budget exhausted: restart the backoff ladder
                               rather than requesting forever at the floor
                               rate *)
                            Retry.start t.request_policy ~rng:t.rng ~now)
                  in
                  Hashtbl.replace t.requested key st';
                  true
                end
                else false)
      in
      if emit then begin
        with_stats t (fun s -> s.requests_sent <- s.requests_sent + 1);
        send
          (Batch.Request { Batch.req_verifier = t.id; req_signer = signer; req_batch = batch_id })
      end

(* Account for why a valid signature left the fast path: the batch was
   never delivered (announcement lost — repairable) vs cached but not
   matching this signature's root (eviction or cross-batch splice). *)
let note_slow_gap t ~missing ~signer ~batch_id =
  if missing then begin
    with_stats t (fun s -> s.slow_missing_batch <- s.slow_missing_batch + 1);
    request_repair t ~signer ~batch_id
  end
  else with_stats t (fun s -> s.slow_cache_miss <- s.slow_cache_miss + 1)

(* Outcome of one verification, for the telemetry plane. *)
type path = Fast | Slow | Rejected

(* Classify one signature: the outcome, the signature's (signer, batch,
   key) trace identity when the wire decoded (what the lifecycle layer
   joins on), and for the slow path whether the batch was missing
   entirely. Safe to call from any domain — everything here is pure
   crypto plus reads/inserts under the table mutexes; control-plane
   sends and per-path accounting happen in [account], on the calling
   domain only. *)
let classify t ~msg wire_bytes =
  match Wire.decode t.cfg wire_bytes with
  | Error _ -> (Rejected, None, false)
  | Ok w -> (
      let ids = Some (w.Wire.signer_id, w.Wire.batch_id, Wire.key_index w) in
      match Pki.allowed t.pki ~id:w.Wire.signer_id ~batch:w.Wire.batch_id with
      | None -> (Rejected, ids, false)
      | Some signer_pk -> (
          match merklified_fast_path t w msg with
          | Some ok -> ((if ok then Fast else Rejected), ids, false)
          | None -> (
              match implied_leaf t w msg with
              | None -> (Rejected, ids, false)
              | Some leaf -> (
                  let root = Merkle.compute_root ~leaf w.Wire.batch_proof in
                  let hit = lookup_batch t ~signer:w.Wire.signer_id ~batch_id:w.Wire.batch_id in
                  match hit with
                  | Some { root = cached_root; _ } when BU.equal_ct root cached_root ->
                      (Fast, ids, false)
                  | _ ->
                      (* Slow path (Alg. 2 lines 29-31): check the
                         embedded EdDSA signature inline. *)
                      let root_msg =
                        Batch.root_message ~signer_id:w.Wire.signer_id ~batch_id:w.Wire.batch_id
                          ~root
                      in
                      if eddsa_verify_cached t signer_pk root_msg w.Wire.root_sig then begin
                        Log.L.debug (fun m ->
                            m "verifier %d: slow-path EdDSA check for signer %d batch %Ld" t.id
                              w.Wire.signer_id w.Wire.batch_id);
                        (Slow, ids, Option.is_none hit)
                      end
                      else (Rejected, ids, false)))))

let lifecycle_verify t ?ctx ids ~t1 ~dur =
  let lc = t.tel.bundle.Tel.lifecycle in
  if Lifecycle.enabled lc then
    match ids with
    | None -> ()
    | Some (signer, batch_id, key_index) ->
        let origin, birth_us =
          match ctx with
          | Some (c : Trace.t) -> (Some c.Trace.origin, Some c.Trace.birth_us)
          | None -> (None, None)
        in
        Lifecycle.verify lc
          ~trace_id:(Trace.id ~signer ~batch_id ~key_index)
          ?origin ?birth_us ~at_us:t1 ~dur_us:dur ()

(* Per-path accounting for one classified signature: stats, counters,
   latency histograms, tracer spans, lifecycle joins, and the slow
   path's pull-repair request. Runs on the calling domain. *)
let account ?ctx t ~t0 ~t1 (outcome, ids, missing) =
  (* classification time is the verify span the CoDel detector watches:
     a sustained rise above the sojourn target (cache misses cascading
     into inline EdDSA) trips the controller into congestion.
     Zero-width spans are skipped — under a virtual clock (simnet) the
     crypto runs in zero virtual time, and a stream of 0 us samples
     would pin the interval minimum at zero and mask the queue delay
     fed through [observe_sojourn]. *)
  (match t.admission with
  | Some a ->
      let dur = t1 -. t0 in
      if dur > 0.0 then Admission.observe a ~now_us:t1 ~sojourn_us:dur
  | None -> ());
  let trace span =
    Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id span Tracer.Begin t0;
    Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id span Tracer.End t1
  in
  match outcome with
  | Fast ->
      with_stats t (fun s -> s.fast <- s.fast + 1);
      Metric.Histogram.add t.tel.h_fast (t1 -. t0);
      trace Tracer.Verify_fast;
      lifecycle_verify t ?ctx ids ~t1 ~dur:(t1 -. t0);
      true
  | Slow ->
      with_stats t (fun s -> s.slow <- s.slow + 1);
      Metric.Histogram.add t.tel.h_slow (t1 -. t0);
      (match ids with
      | Some (signer, batch_id, _) -> note_slow_gap t ~missing ~signer ~batch_id
      | None -> ());
      trace Tracer.Verify_slow;
      lifecycle_verify t ?ctx ids ~t1 ~dur:(t1 -. t0);
      true
  | Rejected -> reject t

(* Admission class of one signature, decided before any crypto: a
   decodable header whose batch root is already cached will take the
   comparison-only fast path (class [Verify]); anything else risks the
   slow path's inline EdDSA and possibly a pull repair (class
   [Repair]), which is what gets shed first under overload. Malformed
   headers class as [Verify] — they reject cheaply at decode. *)
let admission_class t wire_bytes =
  match Wire.peek_header wire_bytes with
  | None -> Admission.Verify
  | Some (signer, batch_id) ->
      if lookup_batch t ~signer ~batch_id <> None then Admission.Verify else Admission.Repair

(* Take the admission decision for one signature. [false] means Shed:
   the caller reports verification failure without touching the crypto
   (never a false accept — a shed signature is simply not accepted). *)
let admitted t wire_bytes =
  match t.admission with
  | None -> true
  | Some a -> (
      match Admission.admit a ~now_us:(now t) (admission_class t wire_bytes) with
      | Admission.Admit -> true
      | Admission.Shed -> false)

let verify_with ?ctx t ~msg wire_bytes =
  if not (admitted t wire_bytes) then false
  else begin
    let t0 = now t in
    let r = classify t ~msg wire_bytes in
    let t1 = now t in
    account ?ctx t ~t0 ~t1 r
  end

let verify t ~msg wire_bytes = verify_with t ~msg wire_bytes

let verify_ctx t ~ctx ~msg wire_bytes = verify_with ~ctx t ~msg wire_bytes

(* Batch verification across the worker pool: classification (the
   expensive crypto) is sharded over contiguous index ranges, one per
   domain, each stamping its own per-signature timings; the fold-back
   does all accounting and control traffic on the calling domain, in
   input order. Without a pool this is a plain loop. *)
let verify_many t pairs =
  match t.pool with
  | Some pool when Array.length pairs > 1 && Domain_pool.size pool > 1 ->
      (* admission verdicts are taken sequentially on the calling
         domain (token buckets drain in input order, same as the
         no-pool loop); only the admitted signatures' crypto is
         sharded. Shed entries stay [None] — no accounting. *)
      let gated =
        Array.map (fun ((_, wire_bytes) as pair) -> (admitted t wire_bytes, pair)) pairs
      in
      let classified =
        Domain_pool.parallel_map pool
          ~f:(fun ~shard:_ (go, (msg, wire_bytes)) ->
            if not go then None
            else begin
              let t0 = now t in
              let r = classify t ~msg wire_bytes in
              let t1 = now t in
              Some (r, t0, t1)
            end)
          gated
      in
      Array.map
        (function None -> false | Some (r, t0, t1) -> account t ~t0 ~t1 r)
        classified
  | _ -> Array.map (fun (msg, wire_bytes) -> verify_with t ~msg wire_bytes) pairs

let can_verify_fast t wire_bytes =
  match Wire.peek_header wire_bytes with
  | None -> false
  | Some (signer, batch_id) -> lookup_batch t ~signer ~batch_id <> None

(* --- load-control surface (Options.with_loadctl) --- *)

let admission t = t.admission

let observe_sojourn t ~sojourn_us =
  match t.admission with
  | Some a -> Admission.observe a ~now_us:(now t) ~sojourn_us
  | None -> ()

let pressure t = match t.admission with Some a -> Admission.pressure a | None -> 0
