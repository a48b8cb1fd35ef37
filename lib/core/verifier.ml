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
  tree : Merkle.t;
  root_sig : string;
  full_keys : full_key array option;
}

type signer_cache = {
  batches : (int64, cached_batch) Hashtbl.t;
  order : int64 Queue.t; (* FIFO eviction *)
}

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
  cache_mu : Mutex.t;
  cache : (int, signer_cache) Hashtbl.t;
  eddsa_mu : Mutex.t;
  eddsa_cache : (string, unit) Hashtbl.t;
  eddsa_order : string Queue.t; (* FIFO eviction for the EdDSA cache *)
  control : (Batch.control -> unit) option;
  ctl_mu : Mutex.t;
  requested : (int * int64, Retry.state) Hashtbl.t; (* pull-repair pacing *)
  rng : Rng.t; (* real entropy: batch-verification soundness + jitter *)
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

(* Pull-repair pacing per (signer, batch) gap: 500 µs base, exponential,
   8 attempts before the ladder restarts. *)
let request_policy = Retry.policy ~base_us:500.0 ~max_attempts:8 ()

(* Publish every [stats] field as a registry counter, plus the accepted
   total (fast + slow) that slow-path burn rules divide by — derived from
   the same record, not counted twice. The probes capture only the
   record, so a dropped verifier's caches are not kept alive. *)
let probe_stats telemetry (s : stats) =
  List.iter
    (fun (name, read) -> Tel.probe telemetry name read)
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
    control;
    ctl_mu = Mutex.create ();
    requested = Hashtbl.create 16;
    rng = Rng.system ();
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

(* Lifecycle announce-plane event: one admit per batch, joining every
   signature of the batch via the sentinel trace id. *)
let lifecycle_admit t (ann : Batch.announcement) ~latency_us =
  let lc = t.tel.bundle.Tel.lifecycle in
  if Lifecycle.enabled lc then
    Lifecycle.admit lc ~signer:ann.Batch.signer_id ~batch_id:ann.Batch.ann_batch_id ~latency_us

(* --- acknowledgements ---

   Every admitted announcement is acknowledged at once, so the signer
   stops re-announcing it. A caller that admits many batches together
   ([deliver_many]) coalesces their ACKs into one frame per signer. *)

let ack_frame_sent t ~acks =
  with_stats t (fun s ->
      s.acks_sent <- s.acks_sent + acks;
      s.ack_frames_sent <- s.ack_frames_sent + 1)

(* With a load controller, every outbound acknowledgement frame carries
   the verifier's current pressure byte ([Batch.Credit]) so loaded
   destinations pace their signers down; without one, the plain
   [Ack]/[Acks] frames go out. *)
let control_frame_for_acks t acks =
  match t.admission with
  | Some a -> Batch.Credit { pressure = Admission.pressure a; acks }
  | None -> ( match acks with [ a ] -> Batch.Ack a | l -> Batch.Acks l)

let send_acks t acks =
  match t.control with
  | None -> ()
  | Some send ->
      ack_frame_sent t ~acks:(List.length acks);
      send (control_frame_for_acks t acks)

(* Cache an announcement whose EdDSA root signature has already been
   checked against [tree]'s root: keep the tree and that signature and,
   for merklified HORS, any full keys that match their signed leaves,
   and insert. [send_ack:false] lets a caller that admits many batches
   at once coalesce the acknowledgements into one [Batch.Acks] frame
   instead. *)
let admit_verified ?(send_ack = true) t (ann : Batch.announcement) tree =
  begin
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
    insert_batch t ~signer:ann.Batch.signer_id ~batch_id:ann.Batch.ann_batch_id
      { tree; root_sig = ann.Batch.root_sig; full_keys };
    (* the gap (if any) is repaired: stop pacing pull requests for it *)
    Mutex.protect t.ctl_mu (fun () ->
        Hashtbl.remove t.requested (ann.Batch.signer_id, ann.Batch.ann_batch_id));
    (* acknowledge so the signer stops re-announcing; sent on every
       successful delivery (idempotent) because a previous ACK may have
       been lost in transit *)
    if send_ack then
      send_acks t
        [
          {
            Batch.ack_verifier = t.id;
            ack_signer = ann.Batch.signer_id;
            ack_batch = ann.Batch.ann_batch_id;
          };
        ]
  end

(* The tree over an announcement's leaves, plus the exact EdDSA-signed
   string naming its root. *)
let announcement_tree (ann : Batch.announcement) =
  let tree = Merkle.build ann.Batch.ann_leaves in
  let msg =
    Batch.root_message ~signer_id:ann.Batch.signer_id ~batch_id:ann.Batch.ann_batch_id
      ~root:(Merkle.root tree)
  in
  (tree, msg)

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

(* Check one announcement's EdDSA root signature and admit it on
   success: the part of [deliver] after admission control and the PKI
   lookup, shared with [deliver_many]'s per-announcement fallback so a
   failed chunk's announcements are not offered to admission control,
   looked up or re-rooted a second time. *)
let verify_and_admit ?sent_us t (ann : Batch.announcement) ~vk ~tree ~msg =
  let t0 = now t in
  Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Announce_delivery Tracer.Begin t0;
  let ok =
    if Eddsa.verify_with vk msg ann.Batch.root_sig then begin
      admit_verified t ann tree;
      true
    end
    else false
  in
  let t1 = now t in
  Metric.Histogram.add t.tel.h_deliver (t1 -. t0);
  Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id Tracer.Announce_delivery Tracer.End t1;
  (* announce-to-admit: from the wire send stamp when the transport
     supplies one, else just the local delivery processing time *)
  if ok then lifecycle_admit t ann ~latency_us:(t1 -. Option.value sent_us ~default:t0);
  ok

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
      let tree, msg = announcement_tree ann in
      verify_and_admit ?sent_us t ann ~vk ~tree ~msg

let split_rng t = Mutex.protect t.ctl_mu (fun () -> Rng.split t.rng)

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
        | Some vk ->
            let tree, msg = announcement_tree ann in
            Some (ann, tree, vk, msg))
      anns
  in
  let n = List.length entries in
  let triples_of chunk =
    List.map (fun (ann, _, vk, msg) -> (Eddsa.verifying_key_bytes vk, msg, ann.Batch.root_sig)) chunk
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
    (fun (ann, tree, _, _) ->
      admit_verified ~send_ack:false t ann tree;
      lifecycle_admit t ann ~latency_us:(t1 -. t0))
    admitted;
  (* coalesce acknowledgements: one Acks frame per signer instead of
     one Ack frame per batch (reverse-path traffic in wide fan-outs) *)
  if Option.is_some t.control && admitted <> [] then begin
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
    (* collect first: [send] may re-enter and must not observe a
       half-iterated table (and by_signer is local anyway) *)
    Hashtbl.fold (fun _ acks acc -> List.rev acks :: acc) by_signer []
    |> List.iter (send_acks t)
  end;
  (* failed chunks: per-announcement checks isolate the bad one(s) *)
  List.length admitted
  + List.length
      (List.filter (fun (ann, tree, vk, msg) -> verify_and_admit t ann ~vk ~tree ~msg) failed)

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
      Option.map
        (fun elements ->
          Dsig_hashes.Blake3.digest (String.concat "" (public_seed :: Array.to_list elements)))
        (reassemble_hors p ~hash ~public_seed ~hsig ~complement msg)
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
let merklified_fast_path t (w : Wire.t) msg =
  match (t.cfg.Config.hbss, w.Wire.body) with
  | Config.Hors_merklified { params = p; _ }, Wire.Hors_merk_body { hsig; roots; proofs } -> (
      match lookup_batch t ~signer:w.Wire.signer_id ~batch_id:w.Wire.batch_id with
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
   here is pure crypto plus reads/inserts under the table mutexes;
   control-plane sends and per-path accounting happen in [account], on
   the calling domain only. *)
let classify t ~msg wire_bytes =
  match Wire.decode t.cfg wire_bytes with
  | Error _ -> Refused Malformed
  | Ok w -> (
      match Pki.allowed t.pki ~id:w.Wire.signer_id ~batch:w.Wire.batch_id with
      | None -> Refused Unknown_signer
      | Some signer_vk -> (
          if merklified_fast_path t w msg then Fast_path w
          else
            match implied_leaf t w msg with
            | None -> Refused Bad_signature
            | Some leaf -> (
                let hit = lookup_batch t ~signer:w.Wire.signer_id ~batch_id:w.Wire.batch_id in
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

(* What both accepted paths account: the latency histogram, the tracer
   span and the lifecycle join. *)
let served ?ctx t (w : Wire.t) span h ~t0 ~t1 =
  Metric.Histogram.add h (t1 -. t0);
  Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id span Tracer.Begin t0;
  Tracer.record_at t.tel.bundle.Tel.tracer ~tag:t.id span Tracer.End t1;
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
   latency histograms, tracer spans, lifecycle joins, and the slow
   path's pull-repair request. Runs on the calling domain; returns the
   verdict. *)
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
      served ?ctx t w Tracer.Verify_fast t.tel.h_fast ~t0 ~t1;
      Fast
  | Slow_path { wire = w; missing } ->
      with_stats t (fun s -> s.slow <- s.slow + 1);
      note_slow_gap t ~missing ~signer:w.Wire.signer_id ~batch_id:w.Wire.batch_id;
      served ?ctx t w Tracer.Verify_slow t.tel.h_slow ~t0 ~t1;
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
      | Some (signer, batch_id) when lookup_batch t ~signer ~batch_id = None ->
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

(* [check]'s three stages over many signatures. Admission runs first,
   on the calling domain and in input order, so token buckets drain as
   a loop of [check] would drain them; classification (the crypto) is
   sharded over the pool's domains as contiguous index ranges when
   there is one; accounting and control traffic fold back onto the
   calling domain, in input order. *)
let verify_many t pairs =
  let gated = Array.map (fun ((_, wire_bytes) as pair) -> (admit t wire_bytes, pair)) pairs in
  let classify_gated (go, (msg, wire_bytes)) =
    if go then begin
      let t0 = now t in
      let c = classify t ~msg wire_bytes in
      Some (c, t0, now t)
    end
    else None
  in
  let classified =
    match t.pool with
    | Some pool when Array.length pairs > 1 && Domain_pool.size pool > 1 ->
        Domain_pool.parallel_map pool ~f:(fun ~shard:_ g -> classify_gated g) gated
    | _ -> Array.map classify_gated gated
  in
  Array.map (function None -> Shed | Some (c, t0, t1) -> account t ~t0 ~t1 c) classified

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
