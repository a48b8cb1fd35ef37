(* Load-control plane (DESIGN.md §15): the admission controller's AIMD /
   CoDel mechanics in isolation, its wiring into the verifier (shed
   before crypto, Credit pressure on the ACK wire), the fleet scenario
   generator's determinism, and a small end-to-end Fleetrun overload
   run. Runs as its own executable: the fleet driver spawns effect-based
   simulator processes and the suite sizes populations for seconds, not
   minutes. *)

open Dsig
module Admission = Dsig_loadctl.Admission
module Fleet = Dsig_simnet.Fleet
module Fleetrun = Dsig_deploy.Fleetrun
module Tel = Dsig_telemetry.Telemetry

let tel () = Tel.create ()

let params =
  {
    Admission.target_sojourn_us = 500.0;
    interval_us = 10_000.0;
    initial_rate_per_sec = 1_000.0;
    min_rate_per_sec = 100.0;
    max_rate_per_sec = 10_000.0;
    additive_per_sec = 100.0;
    beta = 0.7;
    burst = 8.0;
    repair_share = 0.25;
  }

(* --- admission controller unit mechanics --- *)

let test_admit_under_rate () =
  let a = Admission.create ~params ~telemetry:(tel ()) () in
  (* one op per 10 ms against a 1000/s bucket: never sheds *)
  for i = 0 to 99 do
    let now = float_of_int i *. 10_000.0 in
    Alcotest.(check bool)
      "admitted" true
      (Admission.admit a ~now_us:now Admission.Verify = Admission.Admit)
  done;
  let s = Admission.stats a in
  Alcotest.(check int) "offered" 100 s.Admission.offered_verify;
  Alcotest.(check int) "no sheds" 0 (Admission.shed_total s);
  Alcotest.(check int) "pressure 0" 0 (Admission.pressure a)

let test_burst_bound () =
  let a = Admission.create ~params ~telemetry:(tel ()) () in
  (* a same-instant burst gets exactly the bucket depth *)
  let admitted = ref 0 in
  for _ = 1 to 100 do
    if Admission.admit a ~now_us:0.0 Admission.Verify = Admission.Admit then incr admitted
  done;
  Alcotest.(check int) "burst depth" (int_of_float params.Admission.burst) !admitted;
  let s = Admission.stats a in
  Alcotest.(check int) "rest shed" (100 - !admitted) s.Admission.shed_verify

let test_control_never_shed () =
  let a = Admission.create ~params ~telemetry:(tel ()) () in
  for _ = 1 to 1000 do
    Alcotest.(check bool)
      "control admitted" true
      (Admission.admit a ~now_us:0.0 Admission.Control = Admission.Admit)
  done;
  Alcotest.(check int) "control sheds zero" 0 (Admission.stats a).Admission.shed_control

let congest a ~from_us =
  (* sojourns pinned above target across several full intervals *)
  let now = ref from_us in
  for _ = 1 to 50 do
    now := !now +. (params.Admission.interval_us /. 10.0);
    Admission.observe a ~now_us:!now ~sojourn_us:(4.0 *. params.Admission.target_sojourn_us)
  done;
  !now

let test_aimd_decrease_and_recovery () =
  let a = Admission.create ~params ~telemetry:(tel ()) () in
  let r0 = Admission.rate_per_sec a in
  let now = congest a ~from_us:0.0 in
  Alcotest.(check bool) "congested" true (Admission.congested a);
  let r1 = Admission.rate_per_sec a in
  Alcotest.(check bool) "rate cut" true (r1 < r0);
  Alcotest.(check bool)
    "rate floored" true
    (r1 >= params.Admission.min_rate_per_sec -. 1e-9);
  (* sub-target sojourns for a while: congestion clears, additive
     increase claws rate back *)
  let t = ref now in
  for _ = 1 to 50 do
    t := !t +. (params.Admission.interval_us /. 2.0);
    Admission.observe a ~now_us:!t ~sojourn_us:(params.Admission.target_sojourn_us /. 10.0)
  done;
  Alcotest.(check bool) "uncongested" false (Admission.congested a);
  Alcotest.(check bool) "rate recovering" true (Admission.rate_per_sec a > r1)

let test_repair_shed_while_congested () =
  let a = Admission.create ~params ~telemetry:(tel ()) () in
  let now = congest a ~from_us:0.0 in
  Alcotest.(check bool)
    "repair shed" true
    (Admission.admit a ~now_us:now Admission.Repair = Admission.Shed);
  (* verify class still gets its (reduced) rate *)
  Alcotest.(check bool)
    "verify still admitted" true
    (Admission.admit a ~now_us:now Admission.Verify = Admission.Admit)

let test_pressure_rises_with_shedding () =
  let a = Admission.create ~params ~telemetry:(tel ()) () in
  let p0 = Admission.pressure a in
  let now = congest a ~from_us:0.0 in
  let p1 = Admission.pressure a in
  Alcotest.(check bool) "congestion raises pressure" true (p1 > p0);
  for _ = 1 to 500 do
    ignore (Admission.admit a ~now_us:now Admission.Verify);
    ignore (Admission.admit a ~now_us:now Admission.Repair)
  done;
  let p2 = Admission.pressure a in
  Alcotest.(check bool) "shedding raises it further" true (p2 > p1);
  Alcotest.(check bool) "byte range" true (p2 <= 255)

let test_to_json () =
  let a = Admission.create ~params ~telemetry:(tel ()) () in
  ignore (Admission.admit a ~now_us:0.0 Admission.Verify);
  let j = Admission.to_json a in
  let has needle =
    let nh = String.length j and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub j i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun k -> Alcotest.(check bool) k true (has k))
    [
      "dsig-loadctl-v1"; "\"rate_per_sec\""; "\"congested\""; "\"pressure\"";
      "\"verify\""; "\"repair\""; "\"control\"";
    ]

(* qcheck: whatever the interleaving of admits and observations, the
   pressure byte stays in 0..255 and the per-class accounting adds up *)
let prop_pressure_and_accounting =
  QCheck.Test.make ~count:100 ~name:"loadctl pressure bounded, accounting exact"
    QCheck.(list (pair (int_bound 2) (map (fun i -> float_of_int i /. 10.0) (int_bound 50_000))))
    (fun events ->
      let a = Admission.create ~params ~telemetry:(tel ()) () in
      let admits = Array.make 3 0 and sheds = Array.make 3 0 in
      let now = ref 0.0 in
      List.iter
        (fun (cls_i, dt) ->
          now := !now +. Float.abs dt;
          let cls =
            match cls_i with
            | 0 -> Admission.Verify
            | 1 -> Admission.Repair
            | _ -> Admission.Control
          in
          (match Admission.admit a ~now_us:!now cls with
          | Admission.Admit -> admits.(cls_i) <- admits.(cls_i) + 1
          | Admission.Shed -> sheds.(cls_i) <- sheds.(cls_i) + 1);
          Admission.observe a ~now_us:!now ~sojourn_us:(Float.abs dt))
        events;
      let p = Admission.pressure a in
      let s = Admission.stats a in
      p >= 0 && p <= 255
      && s.Admission.offered_verify = admits.(0) + sheds.(0)
      && s.Admission.offered_repair = admits.(1) + sheds.(1)
      && s.Admission.offered_control = admits.(2) + sheds.(2)
      && s.Admission.shed_control = 0
      && Admission.offered_total s = List.length events
      && Admission.shed_total s = sheds.(0) + sheds.(1) + sheds.(2))

(* --- verifier integration: shed before crypto, Credit on the wire --- *)

let cfg = Config.make ~batch_size:8 ~queue_threshold:16 (Config.wots ~d:4)

let make_pair ?admission () =
  let t = tel () in
  let rng = Dsig_util.Rng.create 99L in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let frames = ref [] in
  let voptions =
    let o = Options.default |> Options.with_telemetry t in
    match admission with Some a -> Options.with_loadctl a o | None -> o
  in
  let signer =
    Signer.create cfg ~id:0 ~eddsa:sk ~rng
      ~options:(Options.default |> Options.with_telemetry t)
      ~verifiers:[ 1 ] ()
  in
  let verifier =
    Verifier.create cfg ~id:1 ~pki ~options:voptions
      ~control:(fun c -> frames := c :: !frames)
      ()
  in
  (signer, verifier, frames, t)

let test_verifier_shed_no_false_accounting () =
  let a = Admission.create ~params ~telemetry:(tel ()) () in
  let signer, verifier, _, vt = make_pair ~admission:a () in
  List.iter (fun (_, ann) -> ignore (Verifier.deliver verifier ann)) (Signer.drain_outbox signer);
  let msg = "loadctl shed" in
  let wire = Signer.sign signer msg in
  List.iter (fun (_, ann) -> ignore (Verifier.deliver verifier ann)) (Signer.drain_outbox signer);
  Alcotest.(check bool) "sane baseline" true (Verifier.verify verifier ~msg wire);
  (* drive the controller into full shed, then present a GENUINE
     signature: it must come back [Shed] (fail closed) without touching
     the verifier's accept/reject accounting — shed is not "rejected".
     Timestamps must come from the verifier's own clock: [verify] calls
     [admit] at [Tel.now vt], and a bucket drained at synthetic small
     timestamps would refill fully across the clock gap. *)
  ignore (congest a ~from_us:(Tel.now vt));
  for _ = 1 to 1000 do
    ignore (Admission.admit a ~now_us:(Tel.now vt) Admission.Verify)
  done;
  let st = Verifier.stats verifier in
  let fast0 = st.Verifier.fast and slow0 = st.Verifier.slow and rej0 = st.Verifier.rejected in
  Alcotest.(check bool) "shed" true (Verifier.check verifier ~msg wire = Verifier.Shed);
  Alcotest.(check int) "no fast accounted" fast0 st.Verifier.fast;
  Alcotest.(check int) "no slow accounted" slow0 st.Verifier.slow;
  Alcotest.(check int) "not counted rejected" rej0 st.Verifier.rejected

let test_credit_frames_carry_pressure () =
  let a = Admission.create ~params ~telemetry:(tel ()) () in
  let signer, verifier, frames, _ = make_pair ~admission:a () in
  Signer.background_fill signer;
  List.iter (fun (_, ann) -> ignore (Verifier.deliver verifier ann)) (Signer.drain_outbox signer);
  let credits =
    List.filter_map
      (function Batch.Credit { pressure; ack } -> Some (pressure, ack) | _ -> None)
      !frames
  in
  Alcotest.(check bool) "acks ride Credit frames" true (List.length credits > 0);
  Alcotest.(check int) "every frame is a Credit" (List.length !frames) (List.length credits);
  List.iter
    (fun (pressure, ack) ->
      Alcotest.(check int) "pressure byte is live controller state" (Admission.pressure a)
        pressure;
      Alcotest.(check int) "acks this verifier" 1 ack.Batch.ack_verifier)
    credits;
  (* feed one back to the signer like the transport would *)
  match credits with
  | (pressure, ack) :: _ ->
      Control_plane.note_pressure (Control_plane.of_signer signer)
        ~verifier:ack.Batch.ack_verifier ~pressure
  | [] -> ()

let test_verifier_without_loadctl_unchanged () =
  let signer, verifier, frames, _ = make_pair () in
  Signer.background_fill signer;
  List.iter (fun (_, ann) -> ignore (Verifier.deliver verifier ann)) (Signer.drain_outbox signer);
  let msg = "no loadctl" in
  let wire = Signer.sign signer msg in
  List.iter (fun (_, ann) -> ignore (Verifier.deliver verifier ann)) (Signer.drain_outbox signer);
  Alcotest.(check bool) "verifies" true (Verifier.verify verifier ~msg wire);
  Alcotest.(check bool)
    "no Credit frames without a controller" true
    (List.for_all (function Batch.Credit _ -> false | _ -> true) !frames)

(* [deliver] takes one control-class admission per announcement,
   whether its root signature checks or not. *)
let test_deliver_admits_once () =
  let a = Admission.create ~params ~telemetry:(tel ()) () in
  let signer, verifier, _, _ = make_pair ~admission:a () in
  Signer.background_fill signer;
  let anns = List.map snd (Signer.drain_outbox signer) in
  let n = List.length anns in
  Alcotest.(check bool) "several announcements" true (n >= 2);
  let poisoned =
    List.mapi
      (fun i ann -> if i = 0 then { ann with Batch.root_sig = String.make 64 '\x00' } else ann)
      anns
  in
  let offered0 = (Admission.stats a).Admission.offered_control in
  Alcotest.(check int) "all but the poisoned one admitted" (n - 1)
    (List.length (List.filter (Verifier.deliver verifier) poisoned));
  Alcotest.(check int) "one control admission per announcement" n
    ((Admission.stats a).Admission.offered_control - offered0)

(* --- scrape endpoint --- *)

let test_scrape_loadctl_route () =
  let t = tel () in
  let a = Admission.create ~params ~telemetry:t () in
  ignore (Admission.admit a ~now_us:0.0 Admission.Verify);
  let srv = Dsig_tcpnet.Scrape.start ~telemetry:t ~loadctl:a ~port:0 () in
  let port = Dsig_tcpnet.Scrape.port srv in
  (match Dsig_tcpnet.Scrape.fetch ~port ~path:"/loadctl" with
  | Ok body ->
      Alcotest.(check bool)
        "serves controller json" true
        (String.length body > 0 && body.[0] = '{')
  | Error e -> Alcotest.fail ("/loadctl: " ^ e));
  Dsig_tcpnet.Scrape.stop srv;
  (* not mounted -> 404 *)
  let bare = Dsig_tcpnet.Scrape.start ~telemetry:(tel ()) ~port:0 () in
  (match Dsig_tcpnet.Scrape.fetch ~port:(Dsig_tcpnet.Scrape.port bare) ~path:"/loadctl" with
  | Ok _ -> Alcotest.fail "unmounted /loadctl answered 200"
  | Error _ -> ());
  Dsig_tcpnet.Scrape.stop bare

(* --- fleet scenario generator --- *)

let test_fleet_determinism () =
  let mk () = Fleet.create { Fleet.default_spec with Fleet.signers = 64; verifiers = 8 } in
  let f1 = mk () and f2 = mk () in
  for i = 0 to 63 do
    Alcotest.(check (list int))
      "verifier groups reproduce" (Fleet.verifiers_of f1 ~signer:i)
      (Fleet.verifiers_of f2 ~signer:i)
  done

let test_fleet_groups_in_range () =
  let f = Fleet.create { Fleet.default_spec with Fleet.signers = 200; verifiers = 7; fanout = 3 } in
  for i = 0 to 199 do
    let g = Fleet.verifiers_of f ~signer:i in
    Alcotest.(check int) "fanout" 3 (List.length g);
    Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare g));
    List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 7)) g
  done

let test_fleet_profiles () =
  let diurnal =
    Fleet.create
      {
        Fleet.default_spec with
        Fleet.profile = Fleet.Diurnal { period_us = 1_000_000.0; peak = 4.0 };
      }
  in
  Alcotest.(check (float 0.01)) "trough" 1.0 (Fleet.load diurnal ~now_us:0.0);
  Alcotest.(check (float 0.01)) "crest" 4.0 (Fleet.load diurnal ~now_us:500_000.0);
  let spike =
    Fleet.create
      {
        Fleet.default_spec with
        Fleet.profile = Fleet.Spike { at_us = 100.0; dur_us = 50.0; magnitude = 4.0 };
      }
  in
  Alcotest.(check (float 0.001)) "before" 1.0 (Fleet.load spike ~now_us:50.0);
  Alcotest.(check (float 0.001)) "inside" 4.0 (Fleet.load spike ~now_us:120.0);
  Alcotest.(check (float 0.001)) "after" 1.0 (Fleet.load spike ~now_us:200.0)

let test_fleet_outage_and_churn () =
  let f =
    Fleet.create
      {
        Fleet.default_spec with
        Fleet.zones = 4;
        outages = [ { Fleet.zone = 0; from_us = 100.0; until_us = 200.0 } ];
      }
  in
  (* signer 0 is in zone 0; signer 1 is not *)
  Alcotest.(check bool) "out during window" false (Fleet.active f ~signer:0 ~now_us:150.0);
  Alcotest.(check bool) "back after" true (Fleet.active f ~signer:0 ~now_us:250.0);
  Alcotest.(check bool) "other zones unaffected" true (Fleet.active f ~signer:1 ~now_us:150.0);
  Alcotest.(check (float 0.001)) "inactive rate 0" 0.0 (Fleet.rate f ~signer:0 ~now_us:150.0);
  let churny =
    Fleet.create
      { Fleet.default_spec with Fleet.churn = Some { Fleet.up_us = 800.0; down_us = 200.0 } }
  in
  (* over one full period every signer is down somewhere *)
  let some_down = ref false in
  for i = 0 to 99 do
    for k = 0 to 9 do
      if not (Fleet.active churny ~signer:i ~now_us:(float_of_int k *. 100.0)) then
        some_down := true
    done
  done;
  Alcotest.(check bool) "churn takes signers down" true !some_down

let test_fleet_scenarios () =
  List.iter
    (fun name ->
      match Fleet.scenario name with
      | None -> Alcotest.fail ("catalog name unknown: " ^ name)
      | Some spec ->
          let f = Fleet.create spec in
          Alcotest.(check bool) ("describe " ^ name) true (String.length (Fleet.describe f) > 0))
    Fleet.scenario_names;
  (match Fleet.scenario "kilo" with
  | Some s -> Alcotest.(check bool) "kilo is >= 1000 signers" true (s.Fleet.signers >= 1000)
  | None -> Alcotest.fail "kilo missing");
  Alcotest.(check (option reject)) "unknown scenario" None
    (Option.map ignore (Fleet.scenario "no-such-scenario"))

(* --- end-to-end fleet runs --- *)

let fleet_params service_us =
  let per_verifier = 1.0e6 /. service_us in
  {
    Admission.default_params with
    Admission.target_sojourn_us = 3.0 *. service_us;
    interval_us = 25.0 *. service_us;
    initial_rate_per_sec = 1.2 *. per_verifier;
    min_rate_per_sec = 0.1 *. per_verifier;
    max_rate_per_sec = 4.0 *. per_verifier;
    additive_per_sec = 0.1 *. per_verifier;
    (* a deep bucket hides the AIMD cut for most of a short run: at
       this scale a verifier holds ~2 service times of burst, no more *)
    burst = 16.0;
  }

let run_fleet ~signers ~verifiers ~rate ~duration_us =
  let spec =
    {
      Fleet.default_spec with
      Fleet.signers;
      verifiers;
      fanout = min 3 verifiers;
      base_rate_per_sec = rate;
    }
  in
  Fleetrun.run ~latency_us:5.0 ~announce_latency_us:40.0 ~service_us:2_000.0
    ~params:(fleet_params 2_000.0) ~duration_us cfg (Fleet.create spec)

let test_fleetrun_underload () =
  (* 3 verifiers = 1500 ops/s capacity; offer ~300/s *)
  let r = run_fleet ~signers:30 ~verifiers:3 ~rate:10.0 ~duration_us:200_000.0 in
  Alcotest.(check bool) "work flowed" true (r.Fleetrun.accepted > 0);
  Alcotest.(check int) "no false accepts" 0 r.Fleetrun.false_accepts;
  Alcotest.(check int) "no sheds at 20% load" 0 (Admission.shed_total r.Fleetrun.admission);
  Alcotest.(check (float 0.0001)) "shed ratio 0" 0.0 r.Fleetrun.shed_ratio

let test_fleetrun_overload_sheds () =
  (* offer ~4x capacity: the controller must shed rather than queue *)
  let r = run_fleet ~signers:30 ~verifiers:3 ~rate:200.0 ~duration_us:400_000.0 in
  Alcotest.(check bool) "sheds under 4x" true (Admission.shed_total r.Fleetrun.admission > 0);
  Alcotest.(check bool) "still does useful work" true (r.Fleetrun.accepted > 0);
  Alcotest.(check int) "never a false accept" 0 r.Fleetrun.false_accepts;
  Alcotest.(check bool) "pressure surfaced" true (r.Fleetrun.peak_pressure > 0)

let test_fleetrun_deterministic () =
  let r1 = run_fleet ~signers:20 ~verifiers:3 ~rate:50.0 ~duration_us:100_000.0 in
  let r2 = run_fleet ~signers:20 ~verifiers:3 ~rate:50.0 ~duration_us:100_000.0 in
  Alcotest.(check int) "offered reproduces" r1.Fleetrun.offered r2.Fleetrun.offered;
  Alcotest.(check int) "accepted reproduces" r1.Fleetrun.accepted r2.Fleetrun.accepted;
  Alcotest.(check int) "sheds reproduce"
    (Admission.shed_total r1.Fleetrun.admission)
    (Admission.shed_total r2.Fleetrun.admission)

let run_corrupt_fleet () =
  let spec =
    {
      Fleet.default_spec with
      Fleet.signers = 10;
      verifiers = 3;
      fanout = 3;
      base_rate_per_sec = 50.0;
    }
  in
  Fleetrun.run ~latency_us:5.0 ~announce_latency_us:40.0 ~service_us:500.0
    ~params:(fleet_params 500.0) ~duration_us:200_000.0 ~corrupt_every:5 cfg (Fleet.create spec)

let test_fleetrun_corruption_rejected () =
  let r = run_corrupt_fleet () in
  Alcotest.(check int) "flipped bits never verify" 0 r.Fleetrun.false_accepts;
  Alcotest.(check bool) "flipped bits are rejected" true (r.Fleetrun.rejected > 0);
  Alcotest.(check bool) "genuine traffic still flows" true (r.Fleetrun.accepted > 0)

(* Every offered op ends in exactly one place. The client sends are
   counted on one side; on the other, the verdicts (accepted, false
   accepts, rejected), the admission controller's own shed counters,
   and the wire and inboxes when the run stops. *)
let test_fleetrun_accounting_closes () =
  let closes name (r : Fleetrun.result) =
    let adm = r.Fleetrun.admission in
    Alcotest.(check int)
      (name ^ ": offered = accepted + false accepts + rejected + shed + in flight")
      r.Fleetrun.offered
      (r.Fleetrun.accepted + r.Fleetrun.false_accepts + r.Fleetrun.rejected
     + adm.Admission.shed_verify + adm.Admission.shed_repair + r.Fleetrun.in_flight)
  in
  (* 3 verifiers at 2 ms a verification serve 1,500 ops/s: 30 signers
     at 50 ops/s each are 1x *)
  List.iter
    (fun load ->
      closes (Printf.sprintf "%dx" load)
        (run_fleet ~signers:30 ~verifiers:3 ~rate:(50.0 *. float_of_int load)
           ~duration_us:200_000.0))
    [ 1; 2; 4 ];
  closes "corrupt_every:5" (run_corrupt_fleet ())

let suites =
  [
    ( "loadctl-admission",
      [
        Alcotest.test_case "admit under rate" `Quick test_admit_under_rate;
        Alcotest.test_case "burst bound" `Quick test_burst_bound;
        Alcotest.test_case "control never shed" `Quick test_control_never_shed;
        Alcotest.test_case "aimd decrease + recovery" `Quick test_aimd_decrease_and_recovery;
        Alcotest.test_case "repair shed while congested" `Quick
          test_repair_shed_while_congested;
        Alcotest.test_case "pressure rises with shedding" `Quick
          test_pressure_rises_with_shedding;
        Alcotest.test_case "to_json" `Quick test_to_json;
        QCheck_alcotest.to_alcotest prop_pressure_and_accounting;
      ] );
    ( "loadctl-verifier",
      [
        Alcotest.test_case "shed: false, no accounting" `Quick
          test_verifier_shed_no_false_accounting;
        Alcotest.test_case "credit frames carry pressure" `Quick
          test_credit_frames_carry_pressure;
        Alcotest.test_case "without loadctl unchanged" `Quick
          test_verifier_without_loadctl_unchanged;
        Alcotest.test_case "deliver admits once" `Quick test_deliver_admits_once;
        Alcotest.test_case "scrape /loadctl" `Quick test_scrape_loadctl_route;
      ] );
    ( "loadctl-fleet",
      [
        Alcotest.test_case "fleet determinism" `Quick test_fleet_determinism;
        Alcotest.test_case "groups in range" `Quick test_fleet_groups_in_range;
        Alcotest.test_case "profiles" `Quick test_fleet_profiles;
        Alcotest.test_case "outage + churn" `Quick test_fleet_outage_and_churn;
        Alcotest.test_case "scenario catalog" `Quick test_fleet_scenarios;
        Alcotest.test_case "fleetrun underload" `Quick test_fleetrun_underload;
        Alcotest.test_case "fleetrun overload sheds" `Quick test_fleetrun_overload_sheds;
        Alcotest.test_case "fleetrun deterministic" `Quick test_fleetrun_deterministic;
        Alcotest.test_case "fleetrun corruption rejected" `Quick
          test_fleetrun_corruption_rejected;
        Alcotest.test_case "fleetrun accounting closes" `Quick test_fleetrun_accounting_closes;
      ] );
  ]

let () = Alcotest.run "dsig-loadctl" suites
