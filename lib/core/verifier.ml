open Dsig_hbss
module Merkle = Dsig_merkle.Merkle
module Eddsa = Dsig_ed25519.Eddsa
module BU = Dsig_util.Bytesutil
module Rng = Dsig_util.Rng
module Retry = Dsig_util.Retry
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric
module Lifecycle = Dsig_telemetry.Lifecycle
module Trace = Dsig_telemetry.Trace_ctx
module Admission = Dsig_loadctl.Admission

(* A merklified-HORS key the announcement carried in full, checked
   against its signed batch leaf, with the forest the background plane
   built over its elements so the critical path compares proofs against
   it (§5.2). *)
type full_key = {
  seed : string;
  elements : string array;
  forest : Merkle.Forest.forest;
  leaf : string;
}

(* One admitted batch: the tree built over the announcement's leaves,
   whose root [root_sig] signs (both EdDSA-verified by the background
   plane), and, for merklified HORS, the full keys. The fast path is a
   byte comparison against these. *)
type cached_batch = {
  batch_id : int64;
  tree : Merkle.t;
  root_sig : string;
  full_keys : full_key array option;
}

module Signers = Map.Make (Int)

(* The batch cache: each signer's admitted batches, newest first and at
   most [cache_batches] of them, so FIFO eviction is a truncation and a
   purge is a filter. A view is never mutated; writers publish a
   successor (see [publish]), so a reader takes one snapshot and reads
   it without a lock. *)
type view = cached_batch list Signers.t

type reject = Malformed | Unknown_signer | Bad_signature
type verdict = Fast | Slow | Rejected of reject | Shed

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
  mutable eddsa_cache_evictions : int;
}

(* Histogram handles, valid on any domain. The counts live in [stats]
   and reach the registry as probes ([probe_stats]), the cached-batch
   level as a gauge probe over the view. *)
type tel = {
  bundle : Tel.t;
  h_fast : Metric.Histogram.t;
  h_slow : Metric.Histogram.t;
  h_deliver : Metric.Histogram.t;
}

(* Domain-safety discipline (DESIGN.md §12). The batch cache is the
   published [view]: [deliver] and [purge_signer] swap in a successor by
   compare-and-set, and [classify] takes one snapshot per signature.
   Every other mutable table has an owning mutex:

     [eddsa_mu]  -> eddsa_cache + eddsa_order
     [ctl_mu]    -> requested + rng (Rng is not thread-safe)
     [stats_mu]  -> the public stats record

   Two hard rules:
   - NO mutex is ever held across a [send]: the control callback can
     re-enter this verifier synchronously (System's in-process
     loopback delivers a repair announcement inline), and OCaml
     mutexes are not reentrant.
   - No mutex is taken while another is held, so no ordering cycle can
     form. *)
type t = {
  cfg : Config.t;
  id : int;
  pki : Pki.t;
  view : view Atomic.t;
  eddsa_mu : Mutex.t;
  eddsa_cache : (string, unit) Hashtbl.t;
  eddsa_order : string Queue.t; (* FIFO eviction for the EdDSA cache *)
  control : (Batch.control -> unit) option;
  ctl_mu : Mutex.t;
  requested : (int * int64, Retry.state) Hashtbl.t; (* pull-repair pacing *)
  rng : Rng.t; (* retry jitter, seeded by the verifier id: reproducible runs *)
  stats_mu : Mutex.t;
  stats : stats;
  (* Optional load-control plane (Options.with_loadctl): admission is
     consulted before crypto on the verify paths and its pressure byte
     rides outbound ACK frames as [Batch.Credit]. The controller has
     its own internal mutex — safe from any domain. *)
  admission : Admission.t option;
  tel : tel;
}

let eddsa_cache_capacity = 4096

(* Pull-repair pacing per (signer, batch) gap: 500 µs base, exponential,
   8 attempts before the ladder restarts. *)
let request_policy = Retry.policy ~base_us:500.0 ~max_attempts:8 ()

(* Publish every [stats] field as a registry counter, plus the accepted
   total (fast + slow) that slow-path burn rules divide by — derived from
   the same record, not counted twice. The probes capture only the
   record, so a dropped verifier's caches are not kept alive, and
   retire with the verifier. *)
let probe_stats t =
  let s = t.stats in
  List.iter
    (fun (name, read) -> Tel.probe t.tel.bundle ~owner:t name read)
    [
      ("dsig_verifier_fast_total", fun () -> s.fast);
      ("dsig_verifier_slow_total", fun () -> s.slow);
      ("dsig_verifier_verifies_total", fun () -> s.fast + s.slow);
      ("dsig_verifier_rejected_total", fun () -> s.rejected);
      ("dsig_verifier_eddsa_cache_hits_total", fun () -> s.eddsa_cache_hits);
      ("dsig_verifier_announcements_total", fun () -> s.announcements);
      ("dsig_verifier_slow_missing_batch_total", fun () -> s.slow_missing_batch);
      ("dsig_verifier_slow_cache_miss_total", fun () -> s.slow_cache_miss);
      ("dsig_verifier_batch_requests_total", fun () -> s.requests_sent);
      ("dsig_verifier_acks_total", fun () -> s.acks_sent);
      ("dsig_verifier_eddsa_cache_evictions_total", fun () -> s.eddsa_cache_evictions);
    ]

let make_tel telemetry =
  {
    bundle = telemetry;
    h_fast = Tel.histogram telemetry "dsig_verifier_fast_us";
    h_slow = Tel.histogram telemetry "dsig_verifier_slow_us";
    h_deliver = Tel.histogram telemetry "dsig_verifier_deliver_us";
  }

let cached_total view = Signers.fold (fun _ batches n -> n + List.length batches) view 0

let create cfg ~id ~pki ?control ?(options = Options.default) () =
  let telemetry = options.Options.telemetry in
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
      eddsa_cache_evictions = 0;
    }
  in
  let t =
    {
      cfg;
      id;
      pki;
      view = Atomic.make Signers.empty;
      eddsa_mu = Mutex.create ();
      eddsa_cache = Hashtbl.create 256;
      eddsa_order = Queue.create ();
      control;
      ctl_mu = Mutex.create ();
      requested = Hashtbl.create 16;
      rng = Rng.create (Int64.of_int id);
      stats_mu = Mutex.create ();
      stats;
      admission = options.Options.loadctl;
      tel = make_tel telemetry;
    }
  in
  probe_stats t;
  (* the level is read from the view at each snapshot, through a weak
     pointer, so the registry never keeps a dropped verifier's trees
     alive *)
  let self = Weak.create 1 in
  Weak.set self 0 (Some t);
  Tel.gauge_probe telemetry ~owner:t "dsig_verifier_cached_batches" (fun () ->
      match Weak.get self 0 with
      | Some t -> float_of_int (cached_total (Atomic.get t.view))
      | None -> 0.0);
  t

let stats t = t.stats
let with_stats t f = Mutex.protect t.stats_mu (fun () -> f t.stats)

let now t = Tel.now t.tel.bundle

(* --- batch cache (the published view) --- *)

let batches_of view signer = Option.value ~default:[] (Signers.find_opt signer view)

let rec find_batch batch_id = function
  | [] -> None
  | b :: rest -> if Int64.equal b.batch_id batch_id then Some b else find_batch batch_id rest

(* The cached batch a signature names, in one snapshot of the view. *)
let lookup_batch view ~signer ~batch_id =
  match Signers.find_opt signer view with None -> None | Some l -> find_batch batch_id l

let cached_batches t ~signer = List.length (batches_of (Atomic.get t.view) signer)

(* Publish [f]'s successor of the current view, or return at once when
   [f] keeps it. [f] reruns if another writer published first, so it
   must be pure. *)
let rec publish t f =
  let view = Atomic.get t.view in
  let view', r = f view in
  if view' == view || Atomic.compare_and_set t.view view view' then r else publish t f

let insert_batch t ~signer entry =
  publish t (fun view ->
      let batches = batches_of view signer in
      if Option.is_some (find_batch entry.batch_id batches) then (view, ())
      else
        let cap = t.cfg.Config.cache_batches in
        (Signers.add signer (List.filteri (fun i _ -> i < cap) (entry :: batches)) view, ()))

(* Revocation enforcement: drop a signer's cached roots so a stolen
   announcement admitted before the revocation arrived cannot keep
   serving the fast path. With [from_batch] only batches at or past the
   boundary go; without it the whole signer cache is purged. *)
let purge_signer ?from_batch t ~signer =
  let purged =
    publish t (fun view ->
        let batches = batches_of view signer in
        let keep =
          match from_batch with
          | None -> []
          | Some boundary -> List.filter (fun b -> Int64.compare b.batch_id boundary < 0) batches
        in
        let n = List.length batches - List.length keep in
        if n = 0 then (view, 0)
        else
          match keep with
          | [] -> (Signers.remove signer view, n)
          | _ -> (Signers.add signer keep view, n))
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
  purged

(* EdDSA verification under the PKI's prepared key, with the
   bulk-verification cache of §4.4: a hit replaces a full verification
   by a 32-byte table lookup. The expensive [Eddsa.verify_with] runs
   outside [eddsa_mu]. *)
let eddsa_verify_cached t vk msg signature =
  if not t.cfg.Config.eddsa_verify_cache then Eddsa.verify_with vk msg signature
  else begin
    let key = Dsig_hashes.Blake3.digest (Eddsa.verifying_key_bytes vk ^ signature ^ msg) in
    if Mutex.protect t.eddsa_mu (fun () -> Hashtbl.mem t.eddsa_cache key) then begin
      with_stats t (fun s -> s.eddsa_cache_hits <- s.eddsa_cache_hits + 1);
      true
    end
    else if Eddsa.verify_with vk msg signature then begin
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

(* Acknowledge an admitted announcement so the signer stops
   re-announcing it. With a load controller the ACK rides a
   [Batch.Credit] frame carrying the verifier's current pressure byte,
   so loaded destinations pace their signers down. *)
let send_ack t ack =
  match t.control with
  | None -> ()
  | Some send ->
      with_stats t (fun s -> s.acks_sent <- s.acks_sent + 1);
      send
        (match t.admission with
        | Some a -> Batch.Credit { pressure = Admission.pressure a; ack }
        | None -> Batch.Ack ack)

(* Cache an announcement whose EdDSA root signature has already been
   checked against [tree]'s root: keep the tree and that signature and,
   for merklified HORS, any full keys that match their signed leaves. *)
let admit_batch t (ann : Batch.announcement) tree =
  with_stats t (fun s -> s.announcements <- s.announcements + 1);
  (* Full keys (bandwidth reduction off) serve only merklified HORS's
     comparison-only fast path; W-OTS+ and factorized HORS compare
     against the tree. Each key must match its signed leaf before it
     is trusted. *)
  let full_keys =
    match (t.cfg.Config.hbss, ann.Batch.full_keys) with
    | Config.Hors_merklified { trees; _ }, Some keys
      when Array.length keys = Array.length ann.Batch.ann_leaves ->
        let full =
          Array.map2
            (fun (seed, elements) leaf ->
              { seed; elements; forest = Merkle.Forest.build ~trees elements; leaf })
            keys ann.Batch.ann_leaves
        in
        let consistent k =
          BU.equal_ct k.leaf
            (Onetime.merklified_leaf ~public_seed:k.seed ~roots:(Merkle.Forest.roots k.forest))
        in
        if Array.for_all consistent full then Some full else None
    | _ -> None
  in
  let signer = ann.Batch.signer_id and batch_id = ann.Batch.ann_batch_id in
  insert_batch t ~signer { batch_id; tree; root_sig = ann.Batch.root_sig; full_keys };
  (* the gap (if any) is repaired: stop pacing pull requests for it *)
  Mutex.protect t.ctl_mu (fun () -> Hashtbl.remove t.requested (signer, batch_id));
  (* sent on every successful delivery (idempotent) because a previous
     ACK may have been lost in transit *)
  send_ack t { Batch.ack_verifier = t.id; ack_signer = signer; ack_batch = batch_id }

let admits t a cls =
  match Admission.admit a ~now_us:(now t) cls with
  | Admission.Admit -> true
  | Admission.Shed -> false

(* Announcements and repair replies are control-class traffic: the
   admission controller accounts them (offered totals, refill clock)
   but never sheds them — losing an announcement would only convert
   future fast-path verifications into slow paths, making overload
   worse. A [false] here is defensive. *)
let control_admitted t =
  match t.admission with None -> true | Some a -> admits t a Admission.Control

let deliver ?sent_us t (ann : Batch.announcement) =
  control_admitted t
  &&
  match Pki.allowed t.pki ~id:ann.Batch.signer_id ~batch:ann.Batch.ann_batch_id with
  | None ->
      Log.L.warn (fun m ->
          m "verifier %d: dropping announcement from signer %d: unknown, revoked or undecodable key"
            t.id ann.Batch.signer_id);
      false
  | Some vk ->
      let tree = Merkle.build ann.Batch.ann_leaves in
      let msg =
        Batch.root_message ~signer_id:ann.Batch.signer_id ~batch_id:ann.Batch.ann_batch_id
          ~root:(Merkle.root tree)
      in
      let t0 = now t in
      let ok = Eddsa.verify_with vk msg ann.Batch.root_sig in
      if ok then admit_batch t ann tree;
      let t1 = now t in
      Metric.Histogram.add t.tel.h_deliver (t1 -. t0);
      (* the lifecycle's announce plane: one admit per batch, joining
         every signature of the batch via the sentinel trace id, timed
         from the wire send stamp when the transport supplies one, else
         from the start of local processing *)
      let lc = t.tel.bundle.Tel.lifecycle in
      if ok && Lifecycle.enabled lc then
        Lifecycle.admit lc ~signer:ann.Batch.signer_id ~batch_id:ann.Batch.ann_batch_id
          ~latency_us:(t1 -. Option.value sent_us ~default:t0);
      ok

(* Compute the batch leaf implied by a signature, performing all
   scheme-internal checks on the way. [Wire.decode] has already fixed
   every body's shape for this configuration, so [None] means a
   cryptographic mismatch. *)
let implied_leaf t (w : Wire.t) msg =
  let hash = t.cfg.Config.hash and public_seed = w.Wire.public_seed in
  match (t.cfg.Config.hbss, w.Wire.body) with
  | Config.Wots p, Wire.Wots_body s ->
      Some (Wots.recover_public_key_digest ~hash p ~public_seed s msg)
  | Config.Hors_factorized p, Wire.Hors_fact_body { hsig; complement } ->
      Hors.recover_public_key_digest ~hash p ~public_seed hsig ~complement msg
  | Config.Hors_merklified { params = p; trees = _ }, Wire.Hors_merk_body { hsig; roots; proofs }
    ->
      let roots = Array.to_list roots in
      if Hors.verify_with_forest ~hash p ~public_seed ~roots ~proofs hsig msg then
        Some (Onetime.merklified_leaf ~public_seed ~roots)
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

(* The fast path's trust check: the batch proof is the cached tree's own
   proof for [leaf], and the root signature is the one the background
   plane verified. Any other bytes go to the slow path, so a warm
   verifier accepts exactly what a cold one would. *)
let proven_by (b : cached_batch) ~leaf (w : Wire.t) =
  Merkle.proves b.tree ~leaf w.Wire.batch_proof && BU.equal_ct b.root_sig w.Wire.root_sig

(* Merklified fast path: the announcement carried full keys and the
   background plane precomputed the forests, so the critical path hashes
   only the k revealed secrets and compares the signature's seed, roots,
   proofs, batch proof and root signature against the cached key and
   tree — "mere string comparisons" (§5.2). [false] on any mismatch:
   the caller then takes the path a cold verifier takes. *)
let merklified_fast_path t hit (w : Wire.t) msg =
  match (t.cfg.Config.hbss, w.Wire.body) with
  | Config.Hors_merklified { params = p; _ }, Wire.Hors_merk_body { hsig; roots; proofs } -> (
      match hit with
      | Some ({ full_keys = Some keys; _ } as b) when Wire.key_index w < Array.length keys ->
          let k = keys.(Wire.key_index w) in
          BU.equal_ct k.seed w.Wire.public_seed
          && proven_by b ~leaf:k.leaf w
          && roots_equal_ct (Merkle.Forest.roots k.forest) roots
          && Array.length proofs = p.Params.Hors.k
          && Hors.verify_with_elements ~hash:t.cfg.Config.hash p ~public_seed:w.Wire.public_seed
               ~elements:k.elements hsig msg
          &&
          let indices =
            Hors.message_indices p ~public_seed:w.Wire.public_seed ~nonce:hsig.Hors.nonce msg
          in
          Array.for_all2
            (fun (tree, pf) expected_idx ->
              let etree, epf = Merkle.Forest.proof k.forest expected_idx in
              tree = etree && BU.equal_ct (Merkle.encode_proof pf) (Merkle.encode_proof epf))
            proofs indices
      | _ -> false)
  | _ -> false

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
                Hashtbl.replace t.requested key (Retry.start request_policy ~rng:t.rng ~now);
                true
            | Some st ->
                if Retry.due st ~now then begin
                  let st' =
                    match Retry.next request_policy ~rng:t.rng st ~now with
                    | Some st' -> st'
                    | None ->
                        (* budget exhausted: restart the backoff ladder
                           rather than requesting forever at the floor
                           rate *)
                        Retry.start request_policy ~rng:t.rng ~now
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

(* What [classify] found: the path a genuine signature took, with its
   decoded wire (what the lifecycle joins on and pull repair names) and,
   on the slow path, whether its batch was never delivered; or why it
   was refused. *)
type classified =
  | Fast_path of Wire.t
  | Slow_path of { wire : Wire.t; missing : bool }
  | Refused of reject

(* Classify one signature. Safe to call from any domain: everything
   here is pure crypto, one snapshot of the batch cache, and the EdDSA
   cache under its mutex; control-plane sends and per-path accounting
   happen in [account], on the calling domain only. *)
let classify t ~msg wire_bytes =
  match Wire.decode t.cfg wire_bytes with
  | Error _ -> Refused Malformed
  | Ok w -> (
      match Pki.allowed t.pki ~id:w.Wire.signer_id ~batch:w.Wire.batch_id with
      | None -> Refused Unknown_signer
      | Some signer_vk -> (
          let hit =
            lookup_batch (Atomic.get t.view) ~signer:w.Wire.signer_id ~batch_id:w.Wire.batch_id
          in
          if merklified_fast_path t hit w msg then Fast_path w
          else
            match implied_leaf t w msg with
            | None -> Refused Bad_signature
            | Some leaf -> (
                match hit with
                | Some b when proven_by b ~leaf w -> Fast_path w
                | _ ->
                    (* Slow path (Alg. 2 lines 29-31): fold the proof to
                       a root and check the embedded EdDSA signature on
                       it inline. *)
                    let root = Merkle.compute_root ~leaf w.Wire.batch_proof in
                    let root_msg =
                      Batch.root_message ~signer_id:w.Wire.signer_id ~batch_id:w.Wire.batch_id ~root
                    in
                    if eddsa_verify_cached t signer_vk root_msg w.Wire.root_sig then begin
                      Log.L.debug (fun m ->
                          m "verifier %d: slow-path EdDSA check for signer %d batch %Ld" t.id
                            w.Wire.signer_id w.Wire.batch_id);
                      Slow_path { wire = w; missing = Option.is_none hit }
                    end
                    else Refused Bad_signature)))

(* What both accepted paths account: the latency histogram and the
   lifecycle join. *)
let served ?ctx t (w : Wire.t) h ~t0 ~t1 =
  Metric.Histogram.add h (t1 -. t0);
  let lc = t.tel.bundle.Tel.lifecycle in
  if Lifecycle.enabled lc then begin
    let origin, birth_us =
      match ctx with
      | Some (c : Trace.t) -> (Some c.Trace.origin, Some c.Trace.birth_us)
      | None -> (None, None)
    in
    Lifecycle.verify lc
      ~trace_id:
        (Trace.id ~signer:w.Wire.signer_id ~batch_id:w.Wire.batch_id
           ~key_index:(Wire.key_index w))
      ?origin ?birth_us ~at_us:t1 ~dur_us:(t1 -. t0) ()
  end

(* Per-path accounting for one classified signature: stats, counters,
   latency histograms, lifecycle joins, and the slow
   path's pull-repair request. Returns the verdict. *)
let account ?ctx t ~t0 ~t1 c =
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
  match c with
  | Fast_path w ->
      with_stats t (fun s -> s.fast <- s.fast + 1);
      served ?ctx t w t.tel.h_fast ~t0 ~t1;
      Fast
  | Slow_path { wire = w; missing } ->
      with_stats t (fun s -> s.slow <- s.slow + 1);
      note_slow_gap t ~missing ~signer:w.Wire.signer_id ~batch_id:w.Wire.batch_id;
      served ?ctx t w t.tel.h_slow ~t0 ~t1;
      Slow
  | Refused reason ->
      with_stats t (fun s -> s.rejected <- s.rejected + 1);
      Rejected reason

(* Take the admission decision for one signature, before any crypto;
   [false] means Shed: the signature is neither checked nor accounted
   (never a false accept). A decodable header whose batch is cached
   will take the comparison-only fast path (class [Verify]) unless its
   bytes differ from the cached ones; anything else risks the slow
   path's inline EdDSA and possibly a pull repair (class [Repair]),
   which is what gets shed first under overload. Malformed headers class
   as [Verify] — they reject cheaply at decode. *)
let admit t wire_bytes =
  match t.admission with
  | None -> true
  | Some a -> (
      match Wire.peek_header wire_bytes with
      | Some (signer, batch_id)
        when Option.is_none (lookup_batch (Atomic.get t.view) ~signer ~batch_id) ->
          admits t a Admission.Repair
      | _ -> admits t a Admission.Verify)

(* The one per-signature path: admit, classify, account. *)
let check ?ctx t ~msg wire_bytes =
  if not (admit t wire_bytes) then Shed
  else begin
    let t0 = now t in
    let c = classify t ~msg wire_bytes in
    account ?ctx t ~t0 ~t1:(now t) c
  end

let accepted = function Fast | Slow -> true | Rejected _ | Shed -> false
let verify t ~msg wire_bytes = accepted (check t ~msg wire_bytes)

let verdict_name = function
  | Fast -> "fast"
  | Slow -> "slow"
  | Rejected Malformed -> "malformed"
  | Rejected Unknown_signer -> "unknown signer"
  | Rejected Bad_signature -> "bad signature"
  | Shed -> "shed"

let can_verify_fast t wire_bytes =
  match Wire.peek_header wire_bytes with
  | None -> false
  | Some (signer, batch_id) -> Option.is_some (lookup_batch (Atomic.get t.view) ~signer ~batch_id)

(* --- load-control surface (Options.with_loadctl) --- *)

let admission t = t.admission

let observe_sojourn t ~sojourn_us =
  match t.admission with
  | Some a -> Admission.observe a ~now_us:(now t) ~sojourn_us
  | None -> ()

let pressure t = match t.admission with Some a -> Admission.pressure a | None -> 0
