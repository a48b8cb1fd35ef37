(* Announcement-plane reliability under an adversarial network (ISSUE 2
   acceptance): with drop=0.2, reorder=0.2, corrupt=0.05 injected into
   the modeled network, every signature still verifies (slow-path
   fallback) and nothing falsely accepts; once the faults are lifted,
   ACK/re-announce plus pull repair bring the fast-path share back above
   90%. *)

open Dsig
module Sim = Dsig_simnet.Sim
module Net = Dsig_simnet.Net
module Deploy = Dsig_deploy.Deploy
module Tel = Dsig_telemetry.Telemetry

let test_fault_matrix () =
  let sim = Sim.create () in
  (* virtual clock: the re-announce timers and the pull-repair backoff
     ladder run in simulated time *)
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
  let options = Options.default |> Options.with_telemetry telemetry in
  (* a dropped announcement is re-sent only after its destination's RTO
     (at least 200 µs, doubled per loss) plus up to one 100 µs poll,
     while a signature is issued every 150 µs: signatures from the lost
     batch meet a verifier that lacks it, an observable missing-batch
     window *)
  let d = Deploy.create sim cfg ~n:3 ~options ~reannounce_poll_us:100.0 () in
  Net.set_faults (Deploy.net d) ~drop:0.2 ~reorder:0.2 ~corrupt:0.05 ~reorder_delay_us:300.0
    ~mutate:(Deploy.corrupting_mutate ~seed:11L) ~seed:42L ();
  Sim.run ~until:1_000.0 sim;
  let v1 = Deploy.verifier d 1 in
  let faulty_n = 120 in
  let ok = ref 0 in
  for i = 1 to faulty_n do
    let msg = Printf.sprintf "faulty-%d" i in
    let s = Deploy.sign d ~signer:0 msg in
    if Deploy.verify d ~verifier:1 ~msg s then incr ok;
    if i mod 10 = 0 then
      Alcotest.(check bool) "no false accept under faults" false
        (Deploy.verify d ~verifier:1 ~msg:(msg ^ "!") s);
    Sim.run ~until:(Sim.now sim +. 150.0) sim
  done;
  Alcotest.(check int) "every signature verifies under faults" faulty_n !ok;
  let st_mid = Verifier.stats v1 in
  Alcotest.(check bool) "missing-batch slow paths observed" true
    (st_mid.Verifier.slow_missing_batch > 0);
  Alcotest.(check bool) "pull-repair requests emitted" true (st_mid.Verifier.requests_sent > 0);
  let sg = Signer.stats (Deploy.signer d 0) in
  Alcotest.(check bool) "re-announcements happened" true (sg.Signer.reannounces > 0);
  (* lift the faults; the re-announce backlog and pull repairs converge *)
  Net.clear_faults (Deploy.net d);
  Sim.run ~until:(Sim.now sim +. 30_000.0) sim;
  let base_fast = (Verifier.stats v1).Verifier.fast in
  let healed_n = 40 in
  for i = 1 to healed_n do
    let msg = Printf.sprintf "healed-%d" i in
    let s = Deploy.sign d ~signer:0 msg in
    Alcotest.(check bool) "verifies after heal" true (Deploy.verify d ~verifier:1 ~msg s);
    Sim.run ~until:(Sim.now sim +. 150.0) sim
  done;
  let fast = (Verifier.stats v1).Verifier.fast - base_fast in
  Alcotest.(check bool) "fast-path share back above 90%" true
    (float_of_int fast > 0.9 *. float_of_int healed_n)

(* ISSUE 8 acceptance: with the per-node time-series plane on, a seeded
   fault window leaves its shape in the node's timeline — the fast-path
   share collapses while the network drops announcements and recovers
   after heal (asserted per phase from the ring-buffered series, not
   just at the endpoint) — and the node's SLO burn-rate alert fires
   inside the fault window and resolves after it. *)
module Ts = Dsig_timeseries

let counter_value snap name =
  match Dsig_telemetry.Registry.Snapshot.find snap name with
  | Some (Dsig_telemetry.Registry.Snapshot.Counter n) -> n
  | _ -> 0

let series_of sampler name =
  match Ts.Sampler.find sampler name with
  | Some s -> s
  | None -> Alcotest.failf "series missing: %s" name

(* the series names an alerter's rules read, from its JSON state *)
let rule_series alerter =
  let module J = Ts.Json_lite in
  match J.parse (Ts.Alert.to_json alerter) with
  | Error e -> Alcotest.failf "alerts JSON does not parse: %s" e
  | Ok root ->
      let alerts = Option.value ~default:[] (Option.bind (J.member "alerts" root) J.to_list) in
      List.concat_map
        (fun a ->
          match J.member "condition" a with
          | None -> []
          | Some c ->
              List.filter_map
                (fun key -> Option.bind (J.member key c) J.to_string)
                [ "bad"; "total"; "series" ])
        alerts

let phase_share sampler ~from_us ~until_us =
  let fast =
    Ts.Series.delta_over (series_of sampler "dsig_verifier_fast_total") ~from_us ~until_us
  in
  let total =
    Ts.Series.delta_over (series_of sampler "dsig_verifier_verifies_total") ~from_us ~until_us
  in
  if total <= 0.0 then Alcotest.fail "no verifications recorded in phase";
  fast /. total

let test_timeline_dip_and_recover () =
  let sim = Sim.create () in
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
  let options = Options.default |> Options.with_telemetry telemetry in
  (* alert windows sized to the signing cadence below: one signature per
     150 µs, so the 9 ms fault phase spans the slow window exactly *)
  let d =
    Deploy.create sim cfg ~n:3 ~options ~reannounce_poll_us:100.0
      ~timeseries:
        (Deploy.timeseries ~poll_us:300.0 ~capacity:1024 ~slow_share_budget:0.1
           ~fast_window_us:3_000.0 ~slow_window_us:9_000.0 ~max_burn:2.0 ())
      ()
  in
  let sampler =
    match Deploy.sampler d 1 with
    | Some s -> s
    | None -> Alcotest.fail "timeseries plane not mounted"
  in
  let alerter =
    match Deploy.alerter d 1 with
    | Some a -> a
    | None -> Alcotest.fail "alerter not mounted"
  in
  Sim.run ~until:20_000.0 sim;
  let run_phase label n =
    let from_us = Sim.now sim in
    for i = 1 to n do
      let msg = Printf.sprintf "%s-%d" label i in
      let s = Deploy.sign d ~signer:0 msg in
      Alcotest.(check bool) "signature verifies" true (Deploy.verify d ~verifier:1 ~msg s);
      Sim.run ~until:(Sim.now sim +. 150.0) sim
    done;
    (* one more sampling interval so the phase's last verifications are
       on the timeline before the boundary is taken *)
    Sim.run ~until:(Sim.now sim +. 600.0) sim;
    (from_us, Sim.now sim)
  in
  let healthy_from, healthy_until = run_phase "healthy" 40 in
  let fault_from = Sim.now sim in
  Net.set_faults (Deploy.net d) ~drop:0.9 ~seed:42L ();
  let faulted_from, faulted_until = run_phase "faulted" 60 in
  Net.clear_faults (Deploy.net d);
  let heal_at = Sim.now sim in
  Sim.run ~until:(Sim.now sim +. 30_000.0) sim;
  let healed_from, healed_until = run_phase "healed" 40 in
  (* the timeline's shape: high fast-path share, collapse, recovery *)
  let healthy = phase_share sampler ~from_us:healthy_from ~until_us:healthy_until in
  let faulted = phase_share sampler ~from_us:faulted_from ~until_us:faulted_until in
  let healed = phase_share sampler ~from_us:healed_from ~until_us:healed_until in
  Alcotest.(check bool)
    (Printf.sprintf "healthy phase is fast (%.2f >= 0.9)" healthy)
    true (healthy >= 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "fault phase collapses (%.2f <= 0.6)" faulted)
    true (faulted <= 0.6);
  Alcotest.(check bool)
    (Printf.sprintf "healed phase recovers (%.2f >= 0.9)" healed)
    true (healed >= 0.9);
  Alcotest.(check bool) "dip-and-recover shape" true
    (faulted < healthy && faulted < healed);
  (* the burn-rate alert saw the same incident: fired inside the fault
     window, resolved after heal, and is quiet now *)
  let fired_at =
    List.filter_map
      (fun (at, rule, ev) ->
        if rule = Deploy.slow_burn_rule && ev = Ts.Alert.Fired then Some at else None)
      (Ts.Alert.transitions alerter)
  in
  let resolved_at =
    List.filter_map
      (fun (at, rule, ev) ->
        if rule = Deploy.slow_burn_rule && ev = Ts.Alert.Resolved then Some at else None)
      (Ts.Alert.transitions alerter)
  in
  (match fired_at with
  | [] -> Alcotest.fail "burn-rate alert never fired"
  | at :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "fired inside the fault window (%.0f in [%.0f, %.0f])" at
           fault_from heal_at)
        true
        (at >= fault_from && at <= heal_at));
  (match resolved_at with
  | [] -> Alcotest.fail "burn-rate alert never resolved"
  | _ ->
      let last_resolve = List.nth resolved_at (List.length resolved_at - 1) in
      Alcotest.(check bool) "resolved after heal began" true (last_resolve >= heal_at));
  Alcotest.(check (option (of_pp Fmt.nop))) "alert quiet at the end"
    (Some `Ok)
    (Ts.Alert.state alerter Deploy.slow_burn_rule);
  (* the transitions surfaced as telemetry counters too, in the
     alerting node's registry *)
  let snap = Deploy.snapshot d in
  Alcotest.(check bool) "fired counter > 0" true
    (counter_value snap "dsig_slo_alerts_fired_total" > 0);
  Alcotest.(check bool) "resolved counter > 0" true
    (counter_value snap "dsig_slo_alerts_resolved_total" > 0);
  (* rings stayed bounded over the whole run *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "series %s within capacity" (Ts.Series.name s))
        true
        (Ts.Series.length s <= Ts.Series.capacity s))
    (Ts.Sampler.all sampler);
  Alcotest.(check bool) "sampling actually happened" true (Ts.Sampler.samples sampler > 50);
  (* Alert reads a missing series as zero burn, so a renamed series
     would silently disarm a rule: every series a node's rules read must
     be on that node's timeline *)
  for i = 0 to 2 do
    let sampler = Option.get (Deploy.sampler d i) in
    let names = rule_series (Option.get (Deploy.alerter d i)) in
    Alcotest.(check bool) (Printf.sprintf "node %d has rules" i) true (names <> []);
    List.iter
      (fun name ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d samples %s" i name)
          true
          (Ts.Sampler.find sampler name <> None))
      names
  done;
  (* the dumped JSON round-trips through the timeline reader *)
  match Ts.Sampler.of_json (Ts.Sampler.to_json sampler) with
  | Error e -> Alcotest.failf "timeline dump does not parse: %s" e
  | Ok rows ->
      let fast_row =
        List.find_opt (fun (name, _, _) -> name = "dsig_verifier_fast_total") rows
      in
      (match fast_row with
      | Some (_, kind, points) ->
          Alcotest.(check bool) "dump keeps the counter kind" true (kind = Ts.Series.Counter);
          Alcotest.(check bool) "dump carries history" true (List.length points > 10)
      | None -> Alcotest.fail "dsig_verifier_fast_total missing from dump")

(* lossless network: ACKs settle every announcement, nothing re-sent *)
let test_quiescent_no_reannounce () =
  let sim = Sim.create () in
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
  let d = Deploy.create sim cfg ~n:3 ~options:(Options.default |> Options.with_telemetry telemetry) () in
  Sim.run ~until:20_000.0 sim;
  for i = 0 to 2 do
    let sg = Signer.stats (Deploy.signer d i) in
    Alcotest.(check int) (Printf.sprintf "signer %d never re-announces" i) 0
      sg.Signer.reannounces;
    Alcotest.(check int) (Printf.sprintf "signer %d fully acked" i) 0
      (Signer.unacked_announcements (Deploy.signer d i))
  done;
  let st = Verifier.stats (Deploy.verifier d 1) in
  Alcotest.(check bool) "acks were sent" true (st.Verifier.acks_sent > 0);
  Alcotest.(check int) "no pull requests needed" 0 st.Verifier.requests_sent

(* Every party publishes into a registry of its own, so a per-party
   gauge holds that party's value rather than the last writer's. Under
   heavy loss each signer's unacknowledged backlog differs from its
   neighbours'; at every check each party's own
   [dsig_signer_unacked_announcements] and [dsig_verifier_fast_total]
   match its signer and verifier, and the deployment view reads their
   sums. *)
let test_per_party_registries () =
  let sim = Sim.create () in
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
  let options = Options.default |> Options.with_telemetry telemetry in
  let d = Deploy.create sim cfg ~n:3 ~latency_us:800.0 ~reannounce_poll_us:100.0 ~options () in
  Net.set_faults (Deploy.net d) ~drop:0.5 ~seed:7L ();
  let gauge snap name =
    match Dsig_telemetry.Registry.Snapshot.find snap name with
    | Some (Dsig_telemetry.Registry.Snapshot.Gauge g) -> g
    | _ -> Float.nan
  in
  let unacked_name = "dsig_signer_unacked_announcements" in
  let fast_name = "dsig_verifier_fast_total" in
  let spread = ref false in
  for k = 1 to 40 do
    let msg = Printf.sprintf "party-%d" k in
    let s = Deploy.sign d ~signer:(k mod 3) msg in
    Alcotest.(check bool) "verifies" true (Deploy.verify d ~verifier:((k + 1) mod 3) ~msg s);
    Sim.run ~until:(Sim.now sim +. 700.0) sim;
    let unacked = List.init 3 (fun i -> Signer.unacked_announcements (Deploy.signer d i)) in
    let fast = List.init 3 (fun i -> (Verifier.stats (Deploy.verifier d i)).Verifier.fast) in
    List.iteri
      (fun i (u, f) ->
        let own = Tel.snapshot (Deploy.telemetry d i) in
        Alcotest.(check (float 0.0)) (Printf.sprintf "node %d unacked gauge" i) (float_of_int u)
          (gauge own unacked_name);
        Alcotest.(check int) (Printf.sprintf "node %d fast counter" i) f (counter_value own fast_name))
      (List.combine unacked fast);
    let all = Deploy.snapshot d in
    let sum = List.fold_left ( + ) 0 in
    Alcotest.(check (float 0.0)) "deployment unacked is the sum"
      (float_of_int (sum unacked)) (gauge all unacked_name);
    Alcotest.(check int) "deployment fast is the sum" (sum fast) (counter_value all fast_name);
    if List.exists (fun u -> u <> List.hd unacked) unacked then spread := true
  done;
  (* a shared last-writer gauge passes only when every node agrees *)
  Alcotest.(check bool) "backlogs differ across nodes at some check" true !spread

(* On a seeded fault schedule (drop=0.2, reorder=0.2) over a
   high-latency link, every signature still verifies with no false
   accepts, and the re-announce timer never fires into the round trip:
   the learned per-destination RTO stays above the ~1.6 ms measured
   RTT, so no re-send is made redundant by an ACK already in flight. *)
let test_adaptive_pacing_no_redundant_resends () =
  let sim = Sim.create () in
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
  let options = Options.default |> Options.with_telemetry telemetry in
  (* 800 µs one-way latency: an ACK cannot return before ~1.6 ms *)
  let d = Deploy.create sim cfg ~n:3 ~latency_us:800.0 ~reannounce_poll_us:100.0 ~options () in
  Net.set_faults (Deploy.net d) ~drop:0.2 ~reorder:0.2 ~reorder_delay_us:300.0 ~seed:42L ();
  Sim.run ~until:10_000.0 sim;
  let n = 60 in
  let ok = ref 0 in
  for i = 1 to n do
    let msg = Printf.sprintf "paced-%d" i in
    let s = Deploy.sign d ~signer:0 msg in
    if Deploy.verify d ~verifier:1 ~msg s then incr ok;
    if i mod 15 = 0 then
      Alcotest.(check bool) "no false accept" false
        (Deploy.verify d ~verifier:1 ~msg:(msg ^ "!") s);
    Sim.run ~until:(Sim.now sim +. 300.0) sim
  done;
  (* settle the re-announce tail *)
  Sim.run ~until:(Sim.now sim +. 60_000.0) sim;
  Alcotest.(check int) "every signature verifies" n !ok;
  let reannounces =
    List.fold_left
      (fun acc i -> acc + (Signer.stats (Deploy.signer d i)).Signer.reannounces)
      0 [ 0; 1; 2 ]
  in
  let snap = Deploy.snapshot d in
  (* the drops force re-sends, so the zero below is not vacuous *)
  Alcotest.(check bool)
    (Printf.sprintf "dropped announcements were re-sent (got %d)" reannounces)
    true (reannounces > 0);
  Alcotest.(check int) "stats and counter agree" reannounces
    (counter_value snap "dsig_signer_reannounces_total");
  Alcotest.(check int) "no redundant resends" 0
    (counter_value snap "dsig_reannounce_redundant_total")

(* Verifiers acknowledge every admitted announcement at once, one
   [Batch.Ack] frame per ACK. On a lossless schedule that is enough for
   the signer: the ACK lands well inside the 5 ms initial RTO, so no
   batch is ever re-announced. *)
let test_immediate_acks () =
  let sim = Sim.create () in
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
  let options = Options.default |> Options.with_telemetry telemetry in
  let d = Deploy.create sim cfg ~n:3 ~latency_us:200.0 ~reannounce_poll_us:100.0 ~options () in
  Sim.run ~until:20_000.0 sim;
  for i = 1 to 30 do
    let msg = Printf.sprintf "ack-%d" i in
    let s = Deploy.sign d ~signer:0 msg in
    Alcotest.(check bool) "verifies" true (Deploy.verify d ~verifier:1 ~msg s);
    Sim.run ~until:(Sim.now sim +. 300.0) sim
  done;
  Sim.run ~until:(Sim.now sim +. 30_000.0) sim;
  Deploy.close d;
  let acks =
    List.fold_left
      (fun a i -> a + (Verifier.stats (Deploy.verifier d i)).Verifier.acks_sent)
      0 [ 0; 1; 2 ]
  in
  let reannounces =
    List.fold_left
      (fun acc i -> acc + (Signer.stats (Deploy.signer d i)).Signer.reannounces)
      0 [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "acks flow" true (acks > 0);
  Alcotest.(check int) "no re-announces" 0 reannounces

(* ISSUE 9 satellite: revoke a signer mid-flight while the network drops
   20% of frames. The revocation record itself rides the same lossy
   plane, so delivery is completed by an idempotent gossip re-send
   (replays are detected, never re-applied). Afterwards no verifier
   accepts a post-revocation signature — fast path (purged roots) or
   slow path (directory boundary) — while every pre-revocation
   signature keeps verifying. *)
let test_revocation_under_faults () =
  let sim = Sim.create () in
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
  let options = Options.default |> Options.with_telemetry telemetry in
  let d = Deploy.create sim cfg ~n:3 ~options ~reannounce_poll_us:100.0 () in
  Net.set_faults (Deploy.net d) ~drop:0.2 ~reorder:0.2 ~reorder_delay_us:300.0 ~seed:43L ();
  Sim.run ~until:1_000.0 sim;
  let pre = ref [] in
  for i = 1 to 10 do
    let msg = Printf.sprintf "pre-rev-%d" i in
    let s = Deploy.sign d ~signer:0 msg in
    pre := (msg, s) :: !pre;
    Sim.run ~until:(Sim.now sim +. 150.0) sim
  done;
  List.iter
    (fun (msg, s) ->
      Alcotest.(check bool) "pre-revocation verifies under faults" true
        (Deploy.verify d ~verifier:1 ~msg s))
    !pre;
  let boundary =
    match Wire.peek_header (snd (List.hd !pre)) with
    | Some (_, b) -> Int64.add b 1L
    | None -> Alcotest.fail "unparseable wire header"
  in
  let encoded = Deploy.revoke ~from_batch:boundary d ~signer:0 () in
  Sim.run ~until:(Sim.now sim +. 2_000.0) sim;
  (* the lossy network may have eaten the broadcast for some node: the
     gossip re-send is a direct replay of the same signed record, and
     it must be idempotent wherever the first copy already landed *)
  for node = 0 to 2 do
    Deploy.deliver_revocation d ~node encoded;
    Alcotest.(check bool)
      (Printf.sprintf "node %d enforces the boundary" node)
      true
      (Pki.revocation (Deploy.pki d node) 0 = `From boundary)
  done;
  let rec barred i =
    if i > 80 then Alcotest.fail "never reached the barred batch"
    else
      let msg = Printf.sprintf "post-rev-%d" i in
      let s = Deploy.sign d ~signer:0 msg in
      Sim.run ~until:(Sim.now sim +. 150.0) sim;
      match Wire.peek_header s with
      | Some (_, b) when Int64.compare b boundary >= 0 -> (msg, s)
      | _ -> barred (i + 1)
  in
  let msg, s = barred 0 in
  Alcotest.(check bool) "verifier 1 rejects post-revocation" false
    (Deploy.verify d ~verifier:1 ~msg s);
  Alcotest.(check bool) "verifier 2 rejects post-revocation" false
    (Deploy.verify d ~verifier:2 ~msg s);
  List.iter
    (fun (msg, s) ->
      Alcotest.(check bool) "pre-revocation still verifies" true
        (Deploy.verify d ~verifier:1 ~msg s);
      Alcotest.(check bool) "pre-revocation still verifies (v2)" true
        (Deploy.verify d ~verifier:2 ~msg s))
    !pre;
  Deploy.close d

(* ISSUE 9 satellite: rotate the signing key under the same fault load.
   Signing availability must hold through the whole cutover — every
   signature issued before, during and after the rotation verifies
   (dropped staged-batch announcements fall back to the slow path and
   pull repair), and the epoch advances even if the ACK drain is starved
   by the lossy network (the coordinator's wait bound cuts over). *)
let test_rotation_under_faults () =
  let sim = Sim.create () in
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
  let options = Options.default |> Options.with_telemetry telemetry in
  let d = Deploy.create sim cfg ~n:3 ~options ~reannounce_poll_us:100.0 () in
  Net.set_faults (Deploy.net d) ~drop:0.2 ~reorder:0.2 ~reorder_delay_us:300.0 ~seed:44L ();
  Sim.run ~until:1_000.0 sim;
  let rot =
    Dsig_keylife.Rotation.create ~max_wait_us:3_000.0
      ~clock:(fun () -> Sim.now sim)
      (Deploy.signer d 0)
  in
  let n = 60 in
  let ok = ref 0 in
  for i = 1 to n do
    let msg = Printf.sprintf "rotating-%d" i in
    let s = Deploy.sign d ~signer:0 msg in
    if Deploy.verify d ~verifier:1 ~msg s then incr ok;
    if i = 20 then ignore (Dsig_keylife.Rotation.start rot);
    if Dsig_keylife.Rotation.in_flight rot then ignore (Dsig_keylife.Rotation.step rot);
    Sim.run ~until:(Sim.now sim +. 150.0) sim
  done;
  Alcotest.(check bool) "rotation completed under faults" true
    (not (Dsig_keylife.Rotation.in_flight rot));
  Alcotest.(check int) "epoch advanced" 1 (Signer.epoch (Deploy.signer d 0));
  Alcotest.(check int) "no sign/verify outage across the cutover" n !ok;
  (* and the new generation keeps verifying once the faults lift *)
  Net.clear_faults (Deploy.net d);
  for i = 1 to 10 do
    let msg = Printf.sprintf "rotated-%d" i in
    let s = Deploy.sign d ~signer:0 msg in
    Alcotest.(check bool) "post-rotation verifies" true (Deploy.verify d ~verifier:1 ~msg s);
    Sim.run ~until:(Sim.now sim +. 150.0) sim
  done;
  Deploy.close d

(* ISSUE 10 acceptance: a fleet hit by a 4x load spike degrades
   gracefully — the slow (Repair) class sheds before the fast (Verify)
   class, nothing falsely accepts even with corrupted traffic in the
   mix, and once the spike passes the AIMD controller recovers to
   steady state with zero shedding. All virtual time: deterministic. *)
let test_fleet_spike_graceful_degradation () =
  let module Fleet = Dsig_simnet.Fleet in
  let module Fleetrun = Dsig_deploy.Fleetrun in
  let module Admission = Dsig_loadctl.Admission in
  (* small batches so batch boundaries (and thus announcement races)
     are frequent; the lossy announce plane then keeps an organic
     Repair-class stream flowing through every phase *)
  let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
  let signers = 30 and verifiers = 3 in
  let service_us = 2_000.0 in
  let per_verifier = 1.0e6 /. service_us in
  let capacity = float_of_int verifiers *. per_verifier in
  let nominal = 0.5 *. capacity in
  (* reactive tuning: short CoDel interval and a hard beta so the
     controller engages within a few tens of ms of the spike front,
     generous additive so it re-opens within the recovery phase *)
  let params =
    {
      Admission.target_sojourn_us = 3.0 *. service_us;
      interval_us = 5.0 *. service_us;
      initial_rate_per_sec = 1.2 *. per_verifier;
      min_rate_per_sec = 0.3 *. per_verifier;
      max_rate_per_sec = 4.0 *. per_verifier;
      additive_per_sec = 2.0 *. per_verifier;
      beta = 0.5;
      burst = 16.0;
      repair_share = 0.25;
    }
  in
  (* phase grid 200 ms: phase 0 steady 1x, phase 1 exactly the 4x
     spike, phase 2 drain, phase 3 the recovery window *)
  let spec =
    {
      Fleet.default_spec with
      Fleet.signers;
      verifiers;
      fanout = 3;
      base_rate_per_sec = nominal /. float_of_int signers;
      profile = Fleet.Spike { at_us = 200_000.0; dur_us = 200_000.0; magnitude = 4.0 };
    }
  in
  let r =
    Fleetrun.run ~latency_us:5.0 ~announce_latency_us:40.0 ~announce_drop:0.25 ~service_us
      ~slow_service_us:(2.0 *. service_us) ~params ~duration_us:800_000.0 ~phase_us:200_000.0
      ~corrupt_every:7 ~reannounce_poll_us:25_000.0 cfg (Fleet.create spec)
  in
  Alcotest.(check int) "four accounting phases" 4 (List.length r.Fleetrun.phases);
  let phase i = List.nth r.Fleetrun.phases i in
  let pre = phase 0 and spike = phase 1 and recovery = phase 3 in
  let shed_in (p : Fleetrun.phase) = p.Fleetrun.p_shed_verify + p.Fleetrun.p_shed_repair in
  (* corrupted messages never verify, under load or not *)
  Alcotest.(check int) "no false accepts anywhere" 0 r.Fleetrun.false_accepts;
  (* steady 1x (50% utilization) sheds nothing *)
  Alcotest.(check int) "pre-spike phase sheds nothing" 0 (shed_in pre);
  (* the spike overloads: shedding engages, and the Repair class (slow
     path) sheds at a strictly higher ratio than the Verify class *)
  Alcotest.(check bool) "spike phase sheds" true (shed_in spike > 0);
  Alcotest.(check bool) "spike phase saw repair traffic" true (spike.Fleetrun.p_offered_repair > 0);
  let ratio shed offered = if offered = 0 then 0.0 else float_of_int shed /. float_of_int offered in
  let repair_ratio = ratio spike.Fleetrun.p_shed_repair spike.Fleetrun.p_offered_repair in
  let verify_ratio = ratio spike.Fleetrun.p_shed_verify spike.Fleetrun.p_offered_verify in
  Alcotest.(check bool) "slow path sheds first" true (repair_ratio > verify_ratio);
  (* degradation is graceful: even at 2x saturation the fleet keeps
     verifying a substantial share of its fast-path capacity, and the
     sojourn of what it does accept stays bounded — shedding, not
     unbounded queueing, absorbs the overload *)
  let spike_goodput =
    float_of_int spike.Fleetrun.p_accepted
    /. ((spike.Fleetrun.p_until_us -. spike.Fleetrun.p_from_us) /. 1.0e6)
  in
  Alcotest.(check bool) "spike goodput above 40% of capacity" true
    (spike_goodput >= 0.4 *. capacity);
  Alcotest.(check bool) "accepted sojourn bounded during the spike" true
    (spike.Fleetrun.p_sojourn_p99_us <= 25.0 *. service_us);
  (* the spike ends at t=400ms; phase 2 drains and by the final phase
     AIMD has re-opened — shed rate back to zero, sojourn at target *)
  Alcotest.(check int) "recovery phase sheds nothing" 0 (shed_in recovery);
  Alcotest.(check bool) "recovery sojourn back around the CoDel target" true
    (recovery.Fleetrun.p_sojourn_p99_us <= 2.0 *. params.Admission.target_sojourn_us)

let suites =
  [
    ( "faultmatrix",
      [
        Alcotest.test_case "drop+reorder+corrupt then heal" `Slow test_fault_matrix;
        Alcotest.test_case "timeline dip-and-recover + burn-rate alert" `Slow
          test_timeline_dip_and_recover;
        Alcotest.test_case "quiescent network needs no repair" `Quick
          test_quiescent_no_reannounce;
        Alcotest.test_case "per-party registries under drop" `Quick test_per_party_registries;
        Alcotest.test_case "adaptive pacing never resends into the RTT" `Slow
          test_adaptive_pacing_no_redundant_resends;
        Alcotest.test_case "immediate acks: one frame per ack" `Quick
          test_immediate_acks;
        Alcotest.test_case "revocation mid-flight under drop" `Slow
          test_revocation_under_faults;
        Alcotest.test_case "rotation keeps availability under drop" `Slow
          test_rotation_under_faults;
        Alcotest.test_case "fleet 4x spike degrades gracefully" `Slow
          test_fleet_spike_graceful_degradation;
      ] );
  ]
