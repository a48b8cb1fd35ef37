(* A real deployment over localhost TCP: a verifier service listens on a
   socket; a signer (with its background plane on a separate domain)
   streams announcements and trace-carrying signed messages to it over
   genuine network framing. The commodity-Ethernet equivalent of the
   paper's Figure 3 deployment, with the full reliability loop closed:
   the verifier ACKs every admitted announcement back over its own
   control connection, the signer re-announces anything unacknowledged
   on a backoff, and a pull-repair Request fetches batches the verifier
   slow-pathed on. A scrape endpoint publishes the shared telemetry
   bundle (including the per-plane lifecycle latencies) while the run
   is in flight. Run:

     dune exec examples/tcp_service.exe
*)

open Dsig
module Tcp = Dsig_tcpnet.Tcpnet
module Scrape = Dsig_tcpnet.Scrape
module Tel = Dsig_telemetry.Telemetry
module Lifecycle = Dsig_telemetry.Lifecycle
module Ts = Dsig_timeseries

let () =
  let cfg = Config.make ~batch_size:16 ~queue_threshold:32 ~cache_batches:64 (Config.wots ~d:4) in
  let rng = Dsig_util.Rng.system () in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;

  (* one telemetry bundle for both ends of the loopback deployment; the
     lifecycle aggregator joins sign, admit and verify events into
     end-to-end spans keyed by the trace ids riding the frames *)
  let tel = Tel.create () in
  Lifecycle.enable tel.Tel.lifecycle;

  (* time-series plane: a wall-clock sampler over the shared registry,
     ticked by the signer's re-announce pump below (sample_hook rides
     Control_plane.step), plus an e2e-latency SLO alert over the sampled p99 *)
  let sampler = Ts.Sampler.create ~interval_us:2_000.0 tel.Tel.registry in
  let alerts =
    Ts.Alert.create ~telemetry:tel sampler
      [
        Ts.Alert.rule ~name:"e2e_p99_latency"
          ~fast:{ Ts.Alert.window_us = 1.0e6; max_burn = 1.0 }
          ~slow:{ Ts.Alert.window_us = 5.0e6; max_burn = 1.0 }
          (Ts.Alert.Latency
             { series = "dsig_lifecycle_e2e_us:p99"; budget_us = 50_000.0 });
      ]
  in

  (* signer: foreground here, background plane on its own domain.
     Re-announce timers follow the measured loopback ACK round trip. *)
  let options =
    Options.default |> Options.with_telemetry tel
    |> Options.with_sample_hook (fun ~now_us ->
           if Ts.Sampler.sample sampler ~now_us then
             ignore (Ts.Alert.step alerts ~now_us))
  in
  let rt = Runtime.create cfg ~id:0 ~eddsa:sk ~seed:7L ~options () in
  let cp = Control_plane.of_runtime rt in

  (* verifier service: every inbound frame is handled on a receiver
     thread; the verifier is guarded by a mutex. Its control uplink
     (ACKs, pull-repair requests) is wired up once the signer's own
     control listener is bound, below. *)
  let control_conn = ref None in
  let control m =
    match !control_conn with Some c -> Tcp.send c (Tcp.Control m) | None -> ()
  in
  let verifier =
    Verifier.create cfg ~id:1 ~pki ~options:(Options.default |> Options.with_telemetry tel)
      ~control ()
  in

  let mu = Mutex.create () in
  let fast = ref 0 and slow = ref 0 and rejected = ref 0 and announcements = ref 0 in
  let handle_signed ?ctx ~msg ~signature () =
    match Verifier.check ?ctx verifier ~msg signature with
    | Verifier.Fast -> incr fast
    | Verifier.Slow -> incr slow
    | Verifier.Rejected _ | Verifier.Shed -> incr rejected
  in
  let server =
    Tcp.listen ~telemetry:tel ~port:0
      ~on_message:(fun m ->
        Mutex.lock mu;
        (match m with
        | Tcp.Announcement a -> if Verifier.deliver verifier a then incr announcements
        | Tcp.Signed { msg; signature } -> handle_signed ~msg ~signature ()
        | Tcp.Traced (ctx, Tcp.Signed { msg; signature }) -> handle_signed ~ctx ~msg ~signature ()
        | Tcp.Traced (_, _) | Tcp.Control _ | Tcp.Checkpoint _ | Tcp.Revoke _ -> ());
        Mutex.unlock mu)
      ()
  in

  let conn = Tcp.connect ~telemetry:tel ~port:(Tcp.port server) () in
  let conn_mu = Mutex.create () in
  let send m =
    Mutex.lock conn_mu;
    Tcp.send conn m;
    Mutex.unlock conn_mu
  in

  (* the signer's control listener: every decoded control frame goes
     through the unified control plane; repair replies (pull requests)
     come back as (dest, announcement) pairs for the data connection *)
  let control_server =
    Tcp.listen ~telemetry:tel ~port:0
      ~on_message:(fun m ->
        match m with
        | Tcp.Control c ->
            Control_plane.deliver cp c
            |> List.iter (fun (_dest, a) -> send (Tcp.Announcement a))
        | _ -> ())
      ()
  in
  control_conn := Some (Tcp.connect ~telemetry:tel ~port:(Tcp.port control_server) ());

  (* scrape endpoint: poll /planes (or run `dsig top -p PORT`) while the
     service is live *)
  let scrape = Scrape.start ~telemetry:tel ~timeseries:sampler ~alerts ~port:0 () in
  Printf.printf "verifier service listening on 127.0.0.1:%d\n" (Tcp.port server);
  Printf.printf "signer control listener on 127.0.0.1:%d\n" (Tcp.port control_server);
  Printf.printf
    "scrape endpoint on http://127.0.0.1:%d (/metrics /metrics.json /trace /planes /health \
     /timeseries /alerts)\n"
    (Scrape.port scrape);

  let announce a =
    send (Tcp.Announcement a);
    Runtime.track_announcement rt a ~dests:[ 1 ]
  in

  (* re-announcement pump: resend announcements whose per-destination
     RTO expired; a no-op once the verifier's ACKs settle everything *)
  let pump_stop = ref false in
  let pump =
    Thread.create
      (fun () ->
        while not !pump_stop do
          Control_plane.step cp ~now:(Tel.now tel)
          |> List.iter (fun (_dest, a) -> send (Tcp.Announcement a));
          Thread.delay 0.001
        done)
      ()
  in

  let n = 40 in
  for i = 1 to n do
    (* push any fresh announcements ahead of the signatures they cover *)
    List.iter announce (Runtime.drain_announcements rt);
    let msg = Printf.sprintf "tcp payment #%d" i in
    let signature, ctx = Runtime.sign_ctx rt msg in
    send (Tcp.Traced (ctx, Tcp.Signed { msg; signature }))
  done;
  (* one tampered message to show rejection end to end *)
  let signature = Runtime.sign rt "genuine" in
  send (Tcp.Signed { msg = "tampered"; signature });

  (* wait for the service to drain *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let done_ () =
    Mutex.lock mu;
    let d = !fast + !slow + !rejected >= n + 1 in
    Mutex.unlock mu;
    d
  in
  while (not (done_ ())) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  (* give the ACK loop a moment to settle the tail announcements *)
  let ack_deadline = Unix.gettimeofday () +. 2.0 in
  while Runtime.unacked_announcements rt > 0 && Unix.gettimeofday () < ack_deadline do
    Thread.delay 0.001
  done;

  Mutex.lock mu;
  Printf.printf "service processed: %d verified, %d rejected (announcements: %d)\n"
    (!fast + !slow) !rejected !announcements;
  Printf.printf "verification paths: fast=%d slow=%d\n" !fast !slow;
  Printf.printf "unacked announcements after drain: %d\n" (Runtime.unacked_announcements rt);
  Mutex.unlock mu;
  let lc = tel.Tel.lifecycle in
  Printf.printf "lifecycle: %d started, %d completed, %d full spans\n" (Lifecycle.started lc)
    (Lifecycle.completed lc) (Lifecycle.full lc);
  List.iter
    (fun plane ->
      Printf.printf "  %-12s p50=%.1fus p99=%.1fus\n" (Lifecycle.plane_name plane)
        (Lifecycle.percentile lc plane 50.0)
        (Lifecycle.percentile lc plane 99.0))
    Lifecycle.[ Sign; Announce; Verify; End_to_end ];
  (match Scrape.fetch ~port:(Scrape.port scrape) ~path:"/planes" with
  | Ok body -> Printf.printf "scrape /planes:\n%s" body
  | Error e -> Printf.printf "scrape fetch failed: %s\n" e);
  (match Scrape.fetch ~port:(Scrape.port scrape) ~path:"/health" with
  | Ok body -> Printf.printf "scrape /health: %s\n" body
  | Error e -> Printf.printf "scrape /health: %s\n" e);
  (* the run's timelines: how many sampling ticks landed, and the alert
     states (inspect interactively with `dsig timeline -p PORT`) *)
  Printf.printf "timeseries: %d samples over %d series\n" (Ts.Sampler.samples sampler)
    (List.length (Ts.Sampler.all sampler));
  (match Scrape.fetch ~port:(Scrape.port scrape) ~path:"/alerts" with
  | Ok body -> Printf.printf "scrape /alerts: %s\n" body
  | Error e -> Printf.printf "scrape /alerts: %s\n" e);
  pump_stop := true;
  (try Thread.join pump with _ -> ());
  Scrape.stop scrape;
  (match !control_conn with Some c -> Tcp.close c | None -> ());
  Tcp.close conn;
  Tcp.stop control_server;
  Tcp.stop server;
  Runtime.shutdown rt
