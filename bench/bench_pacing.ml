(* Re-announce pacing under the fault matrix: a seeded drop/reorder
   schedule over a high-latency (800 µs one-way) link, paced by
   per-destination ACK-RTT RTOs plus a token bucket (DESIGN.md §9).
   The interesting columns are the re-announcement frames and the
   redundant resends — copies an already-in-flight ACK made pointless.
   The learned RTO stays above the ~1.6 ms round trip, so the redundant
   count should read 0. *)

open Dsig
module Sim = Dsig_simnet.Sim
module Net = Dsig_simnet.Net
module Deploy = Dsig_deploy.Deploy
module Tel = Dsig_telemetry.Telemetry
module Snapshot = Dsig_telemetry.Registry.Snapshot

let counter snap name =
  match Snapshot.find snap name with Some (Snapshot.Counter n) -> n | _ -> 0

let gauge snap name =
  match Snapshot.find snap name with Some (Snapshot.Gauge v) -> v | _ -> Float.nan

type outcome = {
  verified : int;
  total : int;
  reannounces : int;
  redundant : int;
  giveups : int;
  view : Snapshot.t;  (* the deployment's: every party's series summed *)
  rtt_us : float;  (* node 0's own pacing gauges *)
  rto_us : float;
}

(* One deployment on the default bundle (its lifecycle is the one the
   harness dumps), with its clock temporarily repointed at
   the virtual one; counters are read as before/after deltas because
   the bundle is shared across experiments. *)
let run_paced () =
  let tel = Tel.default in
  let saved = tel.Tel.clock in
  let sim = Sim.create () in
  Tel.set_clock tel (fun () -> Sim.now sim);
  Fun.protect
    ~finally:(fun () -> Tel.set_clock tel saved)
    (fun () ->
      let before = Tel.snapshot tel in
      let cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4) in
      let options = Options.default |> Options.with_telemetry tel in
      let d =
        Deploy.create sim cfg ~n:3 ~latency_us:800.0 ~reannounce_poll_us:100.0 ~options ()
      in
      Net.set_faults (Deploy.net d) ~drop:0.2 ~reorder:0.2 ~reorder_delay_us:300.0 ~seed:42L ();
      Sim.run ~until:10_000.0 sim;
      let total = Harness.scaled 60 in
      let verified = ref 0 in
      for i = 1 to total do
        let msg = Printf.sprintf "pacing-%d" i in
        let s = Deploy.sign d ~signer:0 msg in
        if Deploy.verify d ~verifier:1 ~msg s then incr verified;
        Sim.run ~until:(Sim.now sim +. 300.0) sim
      done;
      (* settle the re-announce tail *)
      Sim.run ~until:(Sim.now sim +. 60_000.0) sim;
      let view = Deploy.snapshot d in
      let delta name = counter view name - counter before name in
      (* gauges of one name add up across parties in the merged view *)
      let own = Tel.snapshot (Deploy.telemetry d 0) in
      {
        verified = !verified;
        total;
        reannounces = delta "dsig_signer_reannounces_total";
        redundant = delta "dsig_reannounce_redundant_total";
        giveups = delta "dsig_signer_announce_giveups_total";
        view;
        rtt_us = gauge own "dsig_rtt_us";
        rto_us = gauge own "dsig_rto_us";
      })

let run () =
  Harness.section "Re-announce pacing: adaptive ACK-RTT RTO under faults";
  Printf.printf "3 nodes, 800 us one-way latency, drop=0.2 reorder=0.2 (seed 42)\n";
  let o = run_paced () in
  Harness.print_table ~snapshot:o.view
    ~header:[ "verified"; "reannounce frames"; "redundant resends"; "giveups" ]
    [
      [
        Printf.sprintf "%d/%d" o.verified o.total;
        string_of_int o.reannounces;
        string_of_int o.redundant;
        string_of_int o.giveups;
      ];
    ];
  Printf.printf "node 0 learned rtt=%.0f us, rto=%.0f us (dsig_rtt_us / dsig_rto_us)\n"
    o.rtt_us o.rto_us
