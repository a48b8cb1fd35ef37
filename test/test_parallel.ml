(* The parallel plane (ISSUE 7): Domain_pool correctness, multi-domain
   stress on one verifier with a concurrent telemetry scrape, pooled
   vs sequential determinism, and a qcheck interleaving of the
   deliver / pull-repair / ACK control loop that regresses the
   iterate-while-mutate bugs in the verifier's control tables.

   The stress domain count is bounded by DSIG_STRESS_DOMAINS (default
   4, clamped to [2, 8]) so the suite stays sane on small CI hosts. *)

open Dsig
module Rng = Dsig_util.Rng
module Domain_pool = Dsig_util.Domain_pool
module Eddsa = Dsig_ed25519.Eddsa
module Tel = Dsig_telemetry.Telemetry
module Registry = Dsig_telemetry.Registry
module Lifecycle = Dsig_telemetry.Lifecycle

let stress_domains =
  match Sys.getenv_opt "DSIG_STRESS_DOMAINS" with
  | Some s -> ( match int_of_string_opt s with Some n -> Stdlib.max 2 (Stdlib.min 8 n) | None -> 4)
  | None -> 4

let cfg = Config.make ~batch_size:64 ~queue_threshold:64 (Config.wots ~d:4)

(* --- Domain_pool unit tests --- *)

let test_msq () =
  let q = Domain_pool.Msq.create () in
  Alcotest.(check bool) "fresh queue empty" true (Domain_pool.Msq.is_empty q);
  for i = 0 to 99 do
    Domain_pool.Msq.push q i
  done;
  let rec drain acc = match Domain_pool.Msq.pop q with None -> List.rev acc | Some v -> drain (v :: acc) in
  Alcotest.(check (list int)) "fifo drain" (List.init 100 Fun.id) (drain []);
  Alcotest.(check bool) "drained empty" true (Domain_pool.Msq.is_empty q)

let test_msq_concurrent () =
  let q = Domain_pool.Msq.create () in
  let producers = 4 and per = 1_000 in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Domain_pool.Msq.push q ((p * per) + i)
            done))
  in
  List.iter Domain.join doms;
  let seen = Hashtbl.create 1024 in
  let rec drain n =
    match Domain_pool.Msq.pop q with
    | None -> n
    | Some v ->
        Alcotest.(check bool) "no duplicate" false (Hashtbl.mem seen v);
        Hashtbl.add seen v ();
        drain (n + 1)
  in
  Alcotest.(check int) "all pushed values popped" (producers * per) (drain 0)

let test_pool_map () =
  let pool = Domain_pool.create ~domains:stress_domains () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "pool size" stress_domains (Domain_pool.size pool);
      let xs = Array.init 257 Fun.id in
      let ys = Domain_pool.parallel_map pool ~f:(fun ~shard:_ x -> x * x) xs in
      Alcotest.(check bool) "map in order" true (Array.for_all2 (fun x y -> x * x = y) xs ys);
      Alcotest.(check int) "empty input" 0 (Array.length (Domain_pool.parallel_map pool ~f:(fun ~shard:_ x -> x) [||]));
      (* exceptions transport back to the caller *)
      (match Domain_pool.parallel_map pool ~f:(fun ~shard:_ x -> if x = 3 then failwith "boom" else x) xs with
      | _ -> Alcotest.fail "worker exception not re-raised"
      | exception Failure m when m = "boom" -> ());
      (* the pool survives a failed call *)
      let ys = Domain_pool.parallel_map pool ~f:(fun ~shard:_ x -> x + 1) xs in
      Alcotest.(check int) "pool alive after failure" 257 ys.(256));
  (* shutdown is idempotent, submit afterwards refuses *)
  Domain_pool.shutdown pool;
  match Domain_pool.submit pool ~shard:0 (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown accepted"
  | exception Invalid_argument _ -> ()

(* --- determinism: pooled output byte-identical to sequential --- *)

let make_signer ?pool ~telemetry () =
  let rng = Rng.create 7L in
  let sk, pk = Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let options = Options.default |> Options.with_telemetry telemetry in
  let options = match pool with Some p -> Options.with_parallel p options | None -> options in
  let signer = Signer.create cfg ~id:0 ~eddsa:sk ~rng ~options ~verifiers:[ 1 ] () in
  (signer, pki, options)

let test_pool_determinism () =
  let pool = Domain_pool.create ~domains:stress_domains () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let msgs = Array.init 64 (fun i -> Printf.sprintf "det-%03d" i) in
      let s_seq, _, _ = make_signer ~telemetry:(Tel.create ()) () in
      let s_par, _, _ = make_signer ~pool ~telemetry:(Tel.create ()) () in
      Signer.background_fill s_seq;
      Signer.background_fill s_par;
      let w_seq = Array.map (fun m -> Signer.sign s_seq m) msgs in
      let w_par = Signer.sign_many s_par msgs in
      Array.iteri
        (fun i w -> Alcotest.(check string) (Printf.sprintf "wire %d identical" i) w w_par.(i))
        w_seq;
      (* announcements identical too: parallel keygen drew the same seeds *)
      let ann x = List.map (fun (_, a) -> Batch.encode_announcement a) (Signer.drain_outbox x) in
      Alcotest.(check (list string)) "announcements identical" (ann s_seq) (ann s_par))

(* --- the multi-domain stress: N domains hammer one verifier while
   another scrapes telemetry; admits and counters must balance --- *)

let stress_verify () =
  let pool = Domain_pool.create ~domains:stress_domains () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let telemetry = Tel.create () in
      Lifecycle.enable telemetry.Tel.lifecycle;
      let signer, pki, options = make_signer ~pool ~telemetry () in
      let verifier = Verifier.create cfg ~id:1 ~pki ~options () in
      Signer.background_fill signer;
      let n = 64 in
      let msgs = Array.init n (fun i -> Printf.sprintf "stress-%03d" i) in
      let wires = Signer.sign_many signer msgs in
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
        (Lifecycle.spans lc))

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

(* pooled verify_many against a mixed valid/corrupted workload *)
let test_verify_many_mixed () =
  let pool = Domain_pool.create ~domains:stress_domains () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let telemetry = Tel.create () in
      let signer, pki, options = make_signer ~pool ~telemetry () in
      let verifier = Verifier.create cfg ~id:1 ~pki ~options () in
      Signer.background_fill signer;
      let n = 48 in
      let msgs = Array.init n (fun i -> Printf.sprintf "mix-%03d" i) in
      let wires = Signer.sign_many signer msgs in
      List.iter (fun (_, a) -> ignore (Verifier.deliver verifier a)) (Signer.drain_outbox signer);
      (* corrupt the message, not the wire: a flipped message changes the
         recovered public key, so rejection is deterministic on every
         path (a bit flipped inside the embedded root_sig would still
         pass the fast path — correctly, per Algorithm 2) *)
      let pairs =
        Array.init n (fun i -> ((if i mod 5 = 0 then msgs.(i) ^ "!" else msgs.(i)), wires.(i)))
      in
      let verdicts = Verifier.verify_many verifier pairs in
      Array.iteri
        (fun i ok ->
          Alcotest.(check bool) (Printf.sprintf "verdict %d" i) (i mod 5 <> 0) ok)
        verdicts;
      let st = Verifier.stats verifier in
      Alcotest.(check int) "rejects counted" ((n + 4) / 5) st.Verifier.rejected)

(* --- qcheck: deliver / pull-repair / ACK interleavings ---

   Wires a signer and a verifier back-to-back over a synchronous
   in-process loopback: the verifier's control uplink re-enters the
   signer, whose pull-repair replies re-enter the verifier — inside
   whose call stack the original send may still be executing. Before
   the collect-then-send fix, flush_acks iterated [pending_acks] while
   those re-entrant deliveries mutated it (and pull repair mutated
   [requested] mid-iteration); any op sequence below would corrupt the
   tables or lose ACKs. The property checks every signature verifies,
   no exception escapes, and a final force-flush leaves zero pending
   ACKs and zero unACKed announcements. *)

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
  (* announcements reach the verifier stamped ~100 us in the past so an
     SRTT estimate exists and ACKs actually enqueue (hold > 0) *)
  let deliver_ann ann =
    Option.iter
      (fun v -> ignore (Verifier.deliver ~sent_us:(Tel.now telemetry -. 100.0) v ann))
      !verifier_ref
  in
  let send ~dest:_ ann = if !withhold then Queue.add ann withheld else deliver_ann ann in
  let control c =
    match (c, !signer_ref) with
    | _, None -> ()
    | Batch.Ack a, Some s -> Signer.deliver_ack s a
    | Batch.Acks l, Some s -> List.iter (Signer.deliver_ack s) l
    | Batch.Credit { pressure; acks }, Some s ->
        (match acks with
        | a :: _ -> Signer.note_pressure s ~verifier:a.Batch.ack_verifier ~pressure
        | [] -> ());
        List.iter (Signer.deliver_ack s) acks
    | Batch.Request r, Some s ->
        (* pull repair replies synchronously: re-enters the verifier *)
        Option.iter deliver_ann (Signer.deliver_request s r)
  in
  let options =
    Options.default |> Options.with_telemetry telemetry
    |> Options.with_ack_delay ~srtt_fraction:0.25 ~cap_us:1e7
  in
  let signer = Signer.create icfg ~id:0 ~eddsa:sk ~rng ~send ~options ~verifiers:[ 1 ] () in
  let verifier = Verifier.create icfg ~id:1 ~pki ~control ~options () in
  signer_ref := Some signer;
  verifier_ref := Some verifier;
  let all_ok = ref true in
  let step op =
    match op mod 4 with
    | 0 ->
        (* sign and verify; with the announcement withheld this slow-
           paths and emits a pull request, whose synchronous repair
           re-enters the verifier *)
        let msg = Printf.sprintf "op-%d" op in
        let wire = Signer.sign signer msg in
        if not (Verifier.verify verifier ~msg wire) then all_ok := false
    | 1 -> withhold := not !withhold
    | 2 -> ignore (Verifier.flush_acks ~force:true verifier ~now:(Tel.now telemetry))
    | _ ->
        (* release anything withheld, then run the re-announce plane *)
        withhold := false;
        Queue.iter deliver_ann withheld;
        Queue.clear withheld;
        List.iter (fun (_, ann) -> deliver_ann ann) (Signer.step signer ~now:(Tel.now telemetry))
  in
  List.iter step ops;
  (* settle: deliver everything, flush everything *)
  withhold := false;
  Queue.iter deliver_ann withheld;
  Queue.clear withheld;
  List.iter (fun (_, ann) -> deliver_ann ann) (Signer.step signer ~now:(Tel.now telemetry +. 1e9));
  ignore (Verifier.flush_acks ~force:true verifier ~now:(Tel.now telemetry));
  !all_ok
  && Verifier.pending_ack_count verifier = 0
  && Signer.unacked_announcements signer = 0

let interleave_fuzz =
  QCheck.Test.make ~name:"deliver/repair/ack interleavings safe" ~count:60
    QCheck.(list_of_size Gen.(1 -- 40) (int_bound 1000))
    interleave_prop

let () =
  Alcotest.run "dsig-parallel"
    [
      ( "domain-pool",
        [
          Alcotest.test_case "msq fifo" `Quick test_msq;
          Alcotest.test_case "msq concurrent producers" `Quick test_msq_concurrent;
          Alcotest.test_case "parallel_map" `Quick test_pool_map;
          Alcotest.test_case "pooled signing deterministic" `Quick test_pool_determinism;
        ] );
      ( "stress",
        [
          Alcotest.test_case "multi-domain verify hammer" `Slow test_stress;
          Alcotest.test_case "hash digests across domains" `Quick test_hash_domains;
          Alcotest.test_case "verify_many mixed verdicts" `Quick test_verify_many_mixed;
        ] );
      ( "control-interleave",
        [ QCheck_alcotest.to_alcotest ~long:false interleave_fuzz ] );
    ]
