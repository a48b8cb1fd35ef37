(* End-to-end lifecycle observability (ISSUE 3 acceptance): a two-node
   Deploy under 10% announcement-plane message drop still reconstructs
   >= 99% of signature lifecycles — sign, announce-to-admit and verify
   all joined by trace id — because the ACK/re-announce loop eventually
   admits every batch. Per-plane percentiles and the SLO check are
   exercised on the same run. *)

open Dsig
module Sim = Dsig_simnet.Sim
module Net = Dsig_simnet.Net
module Deploy = Dsig_deploy.Deploy
module Tel = Dsig_telemetry.Telemetry
module Lifecycle = Dsig_telemetry.Lifecycle

let test_two_node_lifecycle_under_drop () =
  let sim = Sim.create () in
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let lc = telemetry.Tel.lifecycle in
  Lifecycle.enable lc;
  let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
  let options = Options.default |> Options.with_telemetry telemetry in
  let d = Deploy.create sim cfg ~n:2 ~options ~reannounce_poll_us:100.0 () in
  (* warm up the background planes before injecting faults *)
  Sim.run ~until:2_000.0 sim;
  Net.set_faults (Deploy.net d) ~drop:0.1 ~seed:97L ();
  let n = 200 in
  let sigs =
    List.init n (fun i ->
        let msg = Printf.sprintf "lifecycle-%03d" i in
        let s = Deploy.sign d ~signer:0 ~hint:[ 1 ] msg in
        Sim.run ~until:(Sim.now sim +. 200.0) sim;
        (msg, s))
  in
  (* settle: re-announcements, paced by each destination's learned RTO
     and never abandoned, must admit every batch despite the drops — a
     span only counts as "full" when the admit was observed before its
     verify *)
  Sim.run ~until:(Sim.now sim +. 200_000.0) sim;
  let ok =
    List.fold_left
      (fun acc (msg, s) -> if Deploy.verify d ~verifier:1 ~msg s then acc + 1 else acc)
      0 sigs
  in
  Alcotest.(check int) "all verify" n ok;
  (* >= 99% of lifecycles reconstructed with all three planes *)
  let started = Lifecycle.started lc in
  let full = Lifecycle.full lc in
  Alcotest.(check bool) "every sign recorded" true (started >= n);
  Alcotest.(check bool)
    (Printf.sprintf "full/started >= 0.99 (%d/%d)" full started)
    true
    (float_of_int full >= 0.99 *. float_of_int started);
  Alcotest.(check int) "completed = started" started (Lifecycle.completed lc);
  (* per-plane percentiles are populated and ordered (sign and verify
     run in zero virtual time on the simnet, so only finiteness and
     ordering are checked there) *)
  List.iter
    (fun plane ->
      let p50 = Lifecycle.percentile lc plane 50.0 in
      let p99 = Lifecycle.percentile lc plane 99.0 in
      let name = Lifecycle.plane_name plane in
      Alcotest.(check bool) (name ^ " p50 finite") true (Float.is_finite p50);
      Alcotest.(check bool) (name ^ " p50 <= p99") true (p50 <= p99))
    [ Lifecycle.Sign; Lifecycle.Announce; Lifecycle.Verify; Lifecycle.End_to_end ];
  (* announce-to-admit and end-to-end accrue real virtual time *)
  Alcotest.(check bool) "announce p50 > 0" true
    (Lifecycle.percentile lc Lifecycle.Announce 50.0 > 0.0);
  Alcotest.(check bool) "e2e p50 > 0" true
    (Lifecycle.percentile lc Lifecycle.End_to_end 50.0 > 0.0);
  (* the e2e plane dominates each constituent plane at the median *)
  Alcotest.(check bool) "e2e >= verify at p50" true
    (Lifecycle.percentile lc Lifecycle.End_to_end 50.0
    >= Lifecycle.percentile lc Lifecycle.Verify 50.0);
  (* SLO check: the whole run fits in the virtual time it took, and a
     sub-microsecond budget is rightly violated *)
  let span_us = Sim.now sim +. 1.0 in
  Alcotest.(check bool) "within generous budget" true (Lifecycle.within ~budget_us:span_us lc);
  Alcotest.(check bool) "tiny budget violated" false (Lifecycle.within ~budget_us:0.5 lc);
  (* spans carry the originating signer and are joinable by trace id *)
  let spans = Lifecycle.spans lc in
  Alcotest.(check bool) "spans retained" true (List.length spans > 0);
  List.iter
    (fun sp ->
      Alcotest.(check int) "origin is signer 0" 0 sp.Lifecycle.sp_origin;
      Alcotest.(check bool) "e2e spans non-negative" true (sp.Lifecycle.sp_e2e_us >= 0.0))
    spans

(* With the aggregator left disabled (the default), the same deployment
   records nothing — the hot paths are guarded by one mutable load. *)
let test_lifecycle_disabled_records_nothing () =
  let sim = Sim.create () in
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
  let d =
    Deploy.create sim cfg ~n:2 ~options:(Options.default |> Options.with_telemetry telemetry) ()
  in
  Sim.run ~until:2_000.0 sim;
  let msg = "quiet" in
  let s = Deploy.sign d ~signer:0 ~hint:[ 1 ] msg in
  Sim.run ~until:(Sim.now sim +. 5_000.0) sim;
  Alcotest.(check bool) "verifies" true (Deploy.verify d ~verifier:1 ~msg s);
  let lc = telemetry.Tel.lifecycle in
  Alcotest.(check int) "no sign events" 0 (Lifecycle.started lc);
  Alcotest.(check int) "no spans" 0 (List.length (Lifecycle.spans lc));
  Alcotest.(check bool) "within is vacuously false" false (Lifecycle.within ~budget_us:1e9 lc)

let suites =
  [
    ( "lifecycle-e2e",
      [
        Alcotest.test_case "two-node reconstruction under drop=0.1" `Quick
          test_two_node_lifecycle_under_drop;
        Alcotest.test_case "disabled aggregator records nothing" `Quick
          test_lifecycle_disabled_records_nothing;
      ] );
  ]
