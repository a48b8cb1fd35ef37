(* The multi-domain plane: N domains hammer one verifier while another
   scrapes telemetry, hash kernels and the batch-cache view under
   concurrent domains, a Runtime's driver domain against foreground
   domains and the control plane, and a qcheck interleaving of the
   deliver / pull-repair / ACK control loop that regresses the
   iterate-while-mutate bugs in the verifier's control tables.

   The stress domain count is bounded by DSIG_STRESS_DOMAINS (default
   4, clamped to [2, 8]) so the suite stays sane on small CI hosts. *)

open Dsig
module Rng = Dsig_util.Rng
module Eddsa = Dsig_ed25519.Eddsa
module Tel = Dsig_telemetry.Telemetry
module Registry = Dsig_telemetry.Registry
module Lifecycle = Dsig_telemetry.Lifecycle

let stress_domains =
  match Sys.getenv_opt "DSIG_STRESS_DOMAINS" with
  | Some s -> ( match int_of_string_opt s with Some n -> Stdlib.max 2 (Stdlib.min 8 n) | None -> 4)
  | None -> 4

let cfg = Config.make ~batch_size:64 ~queue_threshold:64 (Config.wots ~d:4)

let make_signer ~telemetry () =
  let rng = Rng.create 7L in
  let sk, pk = Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let options = Options.default |> Options.with_telemetry telemetry in
  let signer = Signer.create cfg ~id:0 ~eddsa:sk ~rng ~options ~verifiers:[ 1 ] () in
  (signer, pki, options)

(* --- the multi-domain stress: N domains hammer one verifier while
   another scrapes telemetry; admits and counters must balance --- *)

let stress_verify () =
  let telemetry = Tel.create () in
  Lifecycle.enable telemetry.Tel.lifecycle;
  let signer, pki, options = make_signer ~telemetry () in
  let verifier = Verifier.create cfg ~id:1 ~pki ~options () in
  Signer.background_fill signer;
  let n = 64 in
  let msgs = Array.init n (fun i -> Printf.sprintf "stress-%03d" i) in
  let wires = Array.map (Signer.sign signer) msgs in
  let anns = List.map snd (Signer.drain_outbox signer) in
  List.iter (fun a -> Alcotest.(check bool) "announcement admitted" true (Verifier.deliver verifier a)) anns;
  (* hammer: each domain verifies a disjoint slice, every signature
     exactly once across domains; a scraper domain snapshots the
     registry concurrently; the main domain re-delivers
     announcements (idempotent admits) the whole time *)
  let stop_scrape = Atomic.make false in
  let scraper =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop_scrape) do
          ignore (Tel.snapshot telemetry);
          incr n;
          Domain.cpu_relax ()
        done;
        !n)
  in
  let slice d = ((d * n / stress_domains), (((d + 1) * n / stress_domains) - 1)) in
  let hammers =
    List.init stress_domains (fun d ->
        Domain.spawn (fun () ->
            let lo, hi = slice d in
            let ok = ref 0 in
            for i = lo to hi do
              if Verifier.verify verifier ~msg:msgs.(i) wires.(i) then incr ok
            done;
            !ok))
  in
  let redeliveries = ref 0 in
  List.iter
    (fun a ->
      for _ = 1 to 3 do
        if Verifier.deliver verifier a then incr redeliveries
      done)
    anns;
  let verified = List.fold_left (fun acc d -> acc + Domain.join d) 0 hammers in
  Atomic.set stop_scrape true;
  let scrapes = Domain.join scraper in
  Alcotest.(check bool) "scraper ran concurrently" true (scrapes > 0);
  (* no lost or duplicated admits *)
  Alcotest.(check int) "every signature verified exactly once" n verified;
  let st = Verifier.stats verifier in
  Alcotest.(check int) "stats fast+slow = n" n (st.Verifier.fast + st.Verifier.slow);
  Alcotest.(check int) "admits = deliveries" (List.length anns + !redeliveries) st.Verifier.announcements;
  Alcotest.(check int) "one batch cached" 1 (Verifier.cached_batches verifier ~signer:0);
  (* registry counters (probes over the stats record) = stats *)
  let snap = Tel.snapshot telemetry in
  let counter name =
    match Registry.Snapshot.find snap name with
    | Some (Registry.Snapshot.Counter c) -> c
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  Alcotest.(check int) "merged fast counter" st.Verifier.fast (counter "dsig_verifier_fast_total");
  Alcotest.(check int) "merged slow counter" st.Verifier.slow (counter "dsig_verifier_slow_total");
  Alcotest.(check int) "merged rejected counter" 0 (counter "dsig_verifier_rejected_total");
  Alcotest.(check int) "merged announcements counter" st.Verifier.announcements
    (counter "dsig_verifier_announcements_total");
  (* lifecycle: every span closed, no negative durations *)
  let lc = telemetry.Tel.lifecycle in
  Alcotest.(check int) "lifecycle spans all closed" n (Lifecycle.completed lc);
  Alcotest.(check int) "no negative spans clamped" 0
    (match Registry.Snapshot.find snap "dsig_lifecycle_negative_clamped_total" with
    | Some (Registry.Snapshot.Counter c) -> c
    | _ -> 0);
  List.iter
    (fun sp ->
      Alcotest.(check bool) "verify plane non-negative" true (sp.Lifecycle.sp_verify_us >= 0.0);
      Alcotest.(check bool) "e2e non-negative" true (sp.Lifecycle.sp_e2e_us >= 0.0))
    (Lifecycle.spans lc)

(* run the stress repeatedly — interleavings differ run to run *)
let test_stress () =
  for _ = 1 to 3 do
    stress_verify ()
  done

(* --- hash kernels across domains: each call owns its scratch state ---

   The background domain's Eddsa.sign and a foreground Ed25519 verify
   both hash with SHA-512; a message-schedule array shared between
   calls let concurrent digests corrupt each other. The same holds for
   the chain kernels: Haraka's int state, BLAKE3's compression state and
   W-OTS+'s mask table must be per call. Every domain hashes its own
   inputs and must reproduce the single-domain digests. *)

let test_hash_domains () =
  let open Dsig_hashes in
  let module Wots = Dsig_hbss.Wots in
  let module Merkle = Dsig_merkle.Merkle in
  let iters = 10_000 in
  let wots_every = 50 in
  (* lengths cycle through one- and multi-block messages *)
  let input d i = Printf.sprintf "domain %d input %d %s" d i (String.make (i mod 300) 'x') in
  let p = match cfg.Config.hbss with Config.Wots p -> p | _ -> assert false in
  let kp = Wots.generate p ~seed:(String.make 32 's') in
  let signature = Wots.sign kp ~nonce:(String.make 16 'n') "domains" in
  let public_seed = Wots.public_seed kp and pk_digest = Wots.public_key_digest kp in
  let leaves = Array.init cfg.Config.batch_size (fun i -> Sha256.digest (string_of_int i)) in
  let tree = Merkle.build leaves in
  let wire batch_id key =
    Wire.encode cfg
      {
        Wire.signer_id = 0;
        batch_id;
        public_seed;
        body = Wire.Wots_body signature;
        batch_proof = Merkle.proof tree key;
        root_sig = String.make 64 'r';
      }
  in
  let digests d i =
    let x = input d i in
    let fixed n = String.sub (x ^ String.make 64 '.') 0 n in
    let key = i mod cfg.Config.batch_size in
    ( (Sha256.digest x, Sha512.digest x),
      (Haraka.haraka256 (fixed 32), Haraka.haraka512 (fixed 64), Hash.digest Hash.Haraka ~length:18 (fixed 18)),
      (Blake3.digest x, Blake3.keyed ~key:(fixed 32) ~length:40 x),
      (* key generation, recovery and verification walk chains from
         seeds and digits that depend on the input *)
      (if i mod wots_every = 0 then
         ( Wots.public_key_digest (Wots.generate p ~seed:(fixed 32)),
           Wots.recover_public_key_digest p ~public_seed signature x,
           Wots.verify p ~public_seed ~pk_digest signature "domains",
           Wots.verify p ~public_seed ~pk_digest signature x )
       else ("", "", false, false)),
      (* the Merkle fold and the wire decoder on every domain at once *)
      ( Merkle.compute_root ~leaf:x (Merkle.proof tree key),
        match Wire.decode cfg (wire (Int64.of_int ((d * iters) + i)) key) with
        | Ok w -> Wire.encode cfg w
        | Error e -> e ) )
  in
  Alcotest.(check bool) "genuine signature verifies" true
    (Wots.verify p ~public_seed ~pk_digest signature "domains");
  let reference = Array.init stress_domains (fun d -> Array.init iters (digests d)) in
  let hashers =
    List.init stress_domains (fun d ->
        Domain.spawn (fun () ->
            let bad = ref 0 in
            for i = 0 to iters - 1 do
              if digests d i <> reference.(d).(i) then incr bad
            done;
            !bad))
  in
  let bad = List.fold_left (fun acc h -> acc + Domain.join h) 0 hashers in
  Alcotest.(check int) "digests equal the single-domain reference" 0 bad

(* Two domains share one PKI binding: each looks the prepared key up
   with [Pki.allowed] and checks genuine and forged signatures under it
   with [Eddsa.verify_with]. The key is built at bind, so there is
   nothing for the domains to race to build. *)
let test_pki_two_domains () =
  let rng = Rng.create 77L in
  let sk, pk = Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let msgs = Array.init 8 (Printf.sprintf "two domains %d") in
  let sigs = Array.map (Eddsa.sign sk) msgs in
  let worker d () =
    let wrong = ref 0 in
    for i = 0 to 23 do
      let j = (i + d) mod Array.length msgs in
      let forged = i mod 3 = 0 in
      let msg = if forged then msgs.(j) ^ "!" else msgs.(j) in
      let ok =
        match Pki.allowed pki ~id:0 ~batch:0L with
        | Some vk -> Eddsa.verify_with vk msg sigs.(j)
        | None -> false
      in
      if ok = forged then incr wrong
    done;
    !wrong
  in
  let doms = List.init 2 (fun d -> Domain.spawn (worker d)) in
  List.iteri
    (fun d dom -> Alcotest.(check int) (Printf.sprintf "domain %d wrong verdicts" d) 0 (Domain.join dom))
    doms

(* The batch cache is a published immutable view: one domain delivers
   announcements (evicting past [cache_batches]) and purges them, while
   the other domains check genuine signatures against whatever view they
   snapshot. A torn or stale view may cost a slow path, never a verdict:
   every check is [Fast] or [Slow]. *)
let test_view_under_writers () =
  let vcfg = Config.make ~batch_size:8 ~queue_threshold:8 ~cache_batches:2 (Config.wots ~d:4) in
  let rng = Rng.create 13L in
  let sk, pk = Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let signer = Signer.create vcfg ~id:0 ~eddsa:sk ~rng ~verifiers:[ 1 ] () in
  let signed =
    Array.init 48 (fun i ->
        Signer.background_fill signer;
        let msg = Printf.sprintf "view %d" i in
        (msg, Signer.sign signer msg))
  in
  let anns = List.map snd (Signer.drain_outbox signer) in
  Alcotest.(check bool) "more batches than the cache holds" true (List.length anns > 2);
  let verifier = Verifier.create vcfg ~id:1 ~pki () in
  let writing = Atomic.make true in
  let checkers =
    List.init (Stdlib.max 1 (stress_domains - 1)) (fun d ->
        Domain.spawn (fun () ->
            let wrong = ref 0 and passes = ref 0 in
            while Atomic.get writing || !passes = 0 do
              Array.iteri
                (fun i (msg, wire) ->
                  if (i + d) mod 2 = 0 then
                    match Verifier.check verifier ~msg wire with
                    | Verifier.Fast | Verifier.Slow -> ()
                    | Verifier.Rejected _ | Verifier.Shed -> incr wrong)
                signed;
              incr passes
            done;
            !wrong))
  in
  for round = 1 to 20 do
    List.iter (fun a -> ignore (Verifier.deliver verifier a)) anns;
    let newest = (List.nth anns (List.length anns - 1)).Batch.ann_batch_id in
    ignore (Verifier.purge_signer ~from_batch:newest verifier ~signer:0);
    if round mod 4 = 0 then ignore (Verifier.purge_signer verifier ~signer:0)
  done;
  Atomic.set writing false;
  List.iteri
    (fun d dom ->
      Alcotest.(check int) (Printf.sprintf "checker %d: every verdict Fast or Slow" d) 0
        (Domain.join dom))
    checkers;
  List.iter (fun a -> ignore (Verifier.deliver verifier a)) anns;
  Alcotest.(check int) "capped at cache_batches" 2 (Verifier.cached_batches verifier ~signer:0);
  let msg, wire = signed.(Array.length signed - 1) in
  Alcotest.(check bool) "the newest batch serves the fast path" true
    (Verifier.check verifier ~msg wire = Verifier.Fast);
  let st = Verifier.stats verifier in
  Alcotest.(check int) "nothing rejected" 0 st.Verifier.rejected

(* One domain signs through a Runtime while another feeds Ack, Credit
   and Request frames through the real dispatcher and polls the
   re-announce plane. The control plane has its own lock and no longer
   borrows the key queue's, so this checks that lock alone keeps the
   tracker consistent: every signature verifies, nothing raises, and
   every tracked announcement settles. *)
let test_runtime_control_plane () =
  let telemetry = Tel.create () in
  let rcfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4) in
  let rng = Rng.create 31L in
  let sk, pk = Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let options = Options.default |> Options.with_telemetry telemetry in
  let rt = Runtime.create rcfg ~id:0 ~eddsa:sk ~seed:5L ~options () in
  let cp = Control_plane.of_runtime rt in
  let signing = Atomic.make true in
  let signer =
    Domain.spawn (fun () ->
        let sigs =
          List.init 200 (fun i ->
              let msg = Printf.sprintf "cp %d" i in
              (msg, Runtime.sign rt msg))
        in
        Atomic.set signing false;
        sigs)
  in
  (* track each announcement for verifiers 1 and 2, ask for a repair of
     it, and ACK it in [Ack] frames, [Credit] frames or one of each *)
  let settle ann =
    Runtime.track_announcement rt ann ~dests:[ 1; 2 ];
    let batch = ann.Batch.ann_batch_id in
    let ack v = { Batch.ack_verifier = v; ack_signer = 0; ack_batch = batch } in
    let repaired =
      Control_plane.deliver cp
        (Batch.Request { Batch.req_verifier = 1; req_signer = 0; req_batch = batch })
    in
    if repaired <> [ (1, ann) ] then failwith "repair did not return the announcement";
    let frames =
      match Int64.rem batch 3L with
      | 0L -> [ Batch.Ack (ack 1); Batch.Ack (ack 2) ]
      | 1L -> [ Batch.Credit { pressure = 9; ack = ack 1 }; Batch.Ack (ack 2) ]
      | _ ->
          [ Batch.Credit { pressure = 17; ack = ack 1 }; Batch.Credit { pressure = 0; ack = ack 2 } ]
    in
    List.iter (fun f -> ignore (Control_plane.deliver cp f)) frames;
    ann
  in
  let control =
    Domain.spawn (fun () ->
        let anns = ref [] in
        while Atomic.get signing do
          anns := List.rev_append (List.map settle (Runtime.drain_announcements rt)) !anns;
          ignore (Control_plane.step cp ~now:(Tel.now telemetry));
          Domain.cpu_relax ()
        done;
        !anns)
  in
  let sigs = Domain.join signer in
  let anns = Domain.join control in
  Runtime.shutdown rt;
  (* the final ACKs: batches the background plane sealed after the
     control domain stopped *)
  let anns = List.rev_append (List.map settle (Runtime.drain_announcements rt)) anns in
  Alcotest.(check int) "every announcement settled" 0 (Runtime.unacked_announcements rt);
  let acks =
    match Registry.Snapshot.find (Tel.snapshot telemetry) "dsig_runtime_acks_total" with
    | Some (Registry.Snapshot.Counter n) -> n
    | _ -> -1
  in
  Alcotest.(check int) "each destination acked once" (2 * List.length anns) acks;
  let verifier = Verifier.create rcfg ~id:1 ~pki ~options () in
  List.iter (fun ann -> ignore (Verifier.deliver verifier ann)) anns;
  List.iter
    (fun (msg, wire) -> Alcotest.(check bool) msg true (Verifier.verify verifier ~msg wire))
    sigs

(* A Runtime over a two-group signer: the foreground signs with and
   without hints, and stages and cuts over rotations while the
   driver domain refills both groups. Every signature verifies, no
   (batch, key index) signs twice, and after each cutover no key from a
   batch older than the staged one signs. *)
let test_runtime_driver () =
  let dcfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4) in
  let rng = Rng.create 41L in
  let sk, pk = Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let options = Options.default |> Options.with_telemetry (Tel.create ()) in
  let rt =
    Runtime.start
      (Signer.create dcfg ~id:0 ~eddsa:sk ~rng ~groups:[ [ 1 ] ] ~options
         ~verifiers:[ 1; 2 ] ())
  in
  let signer = Runtime.signer rt in
  let signed = ref [] in
  let sign_round r =
    let msg i = Printf.sprintf "driver %d.%d" r i in
    let one ?hint i =
      let m = msg i in
      (m, Signer.sign signer ?hint m)
    in
    let many ?hint base = List.init 5 (fun i -> one ?hint (base + i)) in
    let sigs =
      [ one ~hint:[ 1 ] 0; one ~hint:[ 2 ] 1; one 2 ] @ many ~hint:[ 1 ] 10 @ many 20
    in
    signed := List.rev_append sigs !signed;
    sigs
  in
  let batch_of (_, wire) =
    match Wire.decode dcfg wire with
    | Ok w -> (w.Wire.batch_id, Wire.key_index w)
    | Error e -> Alcotest.fail e
  in
  let stale = ref 0 in
  Fun.protect
    ~finally:(fun () -> Runtime.shutdown rt)
    (fun () ->
      for rotation = 1 to 4 do
        ignore (sign_round (10 * rotation));
        let _, staged = Signer.stage_next_batch signer in
        ignore (sign_round ((10 * rotation) + 1));
        (* a default queue that drained has already cut over *)
        if Signer.staged_rotation signer <> None then ignore (Signer.cutover signer);
        List.iter
          (fun s -> if fst (batch_of s) < staged then incr stale)
          (sign_round ((10 * rotation) + 2))
      done);
  Alcotest.(check int) "no stale key signs after cutover" 0 !stale;
  let verifier = Verifier.create dcfg ~id:1 ~pki () in
  List.iter (fun ann -> ignore (Verifier.deliver verifier ann)) (Runtime.drain_announcements rt);
  let bad = List.filter (fun (msg, wire) -> not (Verifier.verify verifier ~msg wire)) !signed in
  Alcotest.(check int) "every signature verifies" 0 (List.length bad);
  let keys = List.map batch_of !signed in
  Alcotest.(check int) "no key signs twice" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check int) "four cutovers" 4 (Signer.epoch signer)

(* Two domains sign at once through one Runtime while its driver domain
   refills: every (batch, key index) pair goes to exactly one caller,
   every signature verifies, and the queue depth stays exact: the keys
   sealed minus the keys taken. *)
let test_two_foreground_domains () =
  let dcfg = Config.make ~batch_size:8 ~queue_threshold:16 (Config.wots ~d:4) in
  let rng = Rng.create 43L in
  let sk, pk = Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let options = Options.default |> Options.with_telemetry (Tel.create ()) in
  let rt = Runtime.create dcfg ~id:0 ~eddsa:sk ~seed:6L ~options () in
  let per = 150 in
  let signed =
    Fun.protect
      ~finally:(fun () -> Runtime.shutdown rt)
      (fun () ->
        let go = Atomic.make false in
        let worker d () =
          while not (Atomic.get go) do
            Domain.cpu_relax ()
          done;
          List.init per (fun i ->
              let msg = Printf.sprintf "domain %d op %d" d i in
              (msg, Runtime.sign rt msg))
        in
        let doms = List.init 2 (fun d -> Domain.spawn (worker d)) in
        Atomic.set go true;
        List.concat_map Domain.join doms)
  in
  let keys =
    List.map
      (fun (_, wire) ->
        match Wire.peek_trace dcfg wire with
        | Some (_, b, k) -> (b, k)
        | None -> Alcotest.fail "signature without a trace triple")
      signed
  in
  Alcotest.(check int) "each key handed out once" (2 * per) (List.length (List.sort_uniq compare keys));
  Alcotest.(check int) "queue depth is sealed minus taken"
    ((dcfg.Config.batch_size * Runtime.batches_generated rt) - (2 * per))
    (Runtime.queue_depth rt);
  let verifier = Verifier.create dcfg ~id:1 ~pki () in
  List.iter (fun ann -> ignore (Verifier.deliver verifier ann)) (Runtime.drain_announcements rt);
  Alcotest.(check int) "every signature verifies" 0
    (List.length (List.filter (fun (msg, wire) -> not (Verifier.verify verifier ~msg wire)) signed))

let verdict =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Verifier.verdict_name v)) ( = )

(* A mixed workload — genuine, tampered, malformed and unknown-signer
   entries — checked in full by every stress domain at once against one
   verifier: each domain's loop of [check] returns the expected verdict
   for every entry, and the stats count every domain's verdicts. *)
let test_mixed_verdicts () =
  let telemetry = Tel.create () in
  let signer, pki, options = make_signer ~telemetry () in
  let verifier = Verifier.create cfg ~id:1 ~pki ~options () in
  Signer.background_fill signer;
  let n = 48 in
  let msgs = Array.init n (fun i -> Printf.sprintf "mix-%03d" i) in
  let wires = Array.map (Signer.sign signer) msgs in
  List.iter (fun (_, a) -> ignore (Verifier.deliver verifier a)) (Signer.drain_outbox signer);
  (* corrupt the message, not the wire: a flipped message changes the
     recovered public key, so rejection is deterministic on every
     path (a bit flipped inside the embedded root_sig would still
     pass the fast path — correctly, per Algorithm 2). Byte 4 is the
     low byte of the wire's signer id; signer 9 is unbound. *)
  let entry i =
    let msg = msgs.(i) and wire = wires.(i) in
    match i mod 6 with
    | 0 -> ((msg ^ "!", wire), Verifier.Rejected Verifier.Bad_signature)
    | 1 -> ((msg, String.sub wire 0 100), Verifier.Rejected Verifier.Malformed)
    | 2 ->
        let b = Bytes.of_string wire in
        Bytes.set b 4 '\x09';
        ((msg, Bytes.to_string b), Verifier.Rejected Verifier.Unknown_signer)
    | _ -> ((msg, wire), Verifier.Fast)
  in
  let entries = Array.init n entry in
  let checkers =
    List.init stress_domains (fun _ ->
        Domain.spawn (fun () ->
            Array.map (fun ((msg, wire), _) -> Verifier.check verifier ~msg wire) entries))
  in
  List.iteri
    (fun d dom ->
      Array.iteri
        (fun i v ->
          Alcotest.check verdict (Printf.sprintf "domain %d verdict %d" d i) (snd entries.(i)) v)
        (Domain.join dom))
    checkers;
  let st = Verifier.stats verifier in
  Alcotest.(check int) "rejects counted" (stress_domains * n / 2) st.Verifier.rejected;
  Alcotest.(check int) "fast paths counted" (stress_domains * n / 2) st.Verifier.fast

(* --- qcheck: deliver / pull-repair / ACK interleavings ---

   Wires a signer and a verifier back-to-back over a synchronous
   in-process loopback: the verifier's control uplink re-enters the
   signer, whose pull-repair replies re-enter the verifier — inside
   whose call stack the original send may still be executing, so no
   verifier lock may be held across those sends (OCaml mutexes are not
   reentrant). The property checks every signature verifies, no
   exception escapes, and once everything is delivered the signer holds
   zero unACKed announcements. *)

let interleave_prop ops =
  let telemetry = Tel.create () in
  let icfg = Config.make ~batch_size:4 ~queue_threshold:4 (Config.wots ~d:4) in
  let rng = Rng.create 21L in
  let sk, pk = Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let verifier_ref = ref None in
  let signer_ref = ref None in
  let withheld = Queue.create () in
  let withhold = ref false in
  let deliver_ann ann = Option.iter (fun v -> ignore (Verifier.deliver v ann)) !verifier_ref in
  let send ~dest:_ ann = if !withhold then Queue.add ann withheld else deliver_ann ann in
  let control c =
    Option.iter
      (fun s ->
        (* pull repair replies synchronously: re-enters the verifier *)
        Control_plane.deliver (Control_plane.of_signer s) c
        |> List.iter (fun (_, ann) -> deliver_ann ann))
      !signer_ref
  in
  let options = Options.default |> Options.with_telemetry telemetry in
  let signer = Signer.create icfg ~id:0 ~eddsa:sk ~rng ~send ~options ~verifiers:[ 1 ] () in
  let verifier = Verifier.create icfg ~id:1 ~pki ~control ~options () in
  let cp = Control_plane.of_signer signer in
  signer_ref := Some signer;
  verifier_ref := Some verifier;
  let all_ok = ref true in
  let step op =
    match op mod 3 with
    | 0 ->
        (* sign and verify; with the announcement withheld this slow-
           paths and emits a pull request, whose synchronous repair
           re-enters the verifier *)
        let msg = Printf.sprintf "op-%d" op in
        let wire = Signer.sign signer msg in
        if not (Verifier.verify verifier ~msg wire) then all_ok := false
    | 1 -> withhold := not !withhold
    | _ ->
        (* release anything withheld, then run the re-announce plane *)
        withhold := false;
        Queue.iter deliver_ann withheld;
        Queue.clear withheld;
        List.iter (fun (_, ann) -> deliver_ann ann) (Control_plane.step cp ~now:(Tel.now telemetry))
  in
  List.iter step ops;
  (* settle: deliver everything *)
  withhold := false;
  Queue.iter deliver_ann withheld;
  Queue.clear withheld;
  List.iter (fun (_, ann) -> deliver_ann ann) (Control_plane.step cp ~now:(Tel.now telemetry +. 1e9));
  !all_ok && Signer.unacked_announcements signer = 0

let interleave_fuzz =
  QCheck.Test.make ~name:"deliver/repair/ack interleavings safe" ~count:60
    QCheck.(list_of_size Gen.(1 -- 40) (int_bound 1000))
    interleave_prop

let () =
  Alcotest.run "dsig-parallel"
    [
      ( "stress",
        [
          Alcotest.test_case "multi-domain verify hammer" `Slow test_stress;
          Alcotest.test_case "hash digests across domains" `Quick test_hash_domains;
          Alcotest.test_case "mixed verdicts across domains" `Quick test_mixed_verdicts;
          Alcotest.test_case "batch cache view under writers" `Quick test_view_under_writers;
          Alcotest.test_case "pki prepared key across two domains" `Quick test_pki_two_domains;
          Alcotest.test_case "runtime sign vs control plane" `Quick test_runtime_control_plane;
          Alcotest.test_case "runtime driver: hints, rotation" `Quick test_runtime_driver;
          Alcotest.test_case "two foreground domains: each key once" `Quick test_two_foreground_domains;
        ] );
      ( "control-interleave",
        [ QCheck_alcotest.to_alcotest ~long:false interleave_fuzz ] );
    ]
