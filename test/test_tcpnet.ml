(* Announcement serialization and the real TCP transport. *)

open Dsig

let cfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4)

let make_announcement ?(reduce_bw = true) () =
  let cfg =
    Config.make ~batch_size:8 ~queue_threshold:8 ~reduce_bg_bandwidth:reduce_bw (Config.wots ~d:4)
  in
  let rng = Dsig_util.Rng.create 3L in
  let sk, _ = Dsig_ed25519.Eddsa.generate rng in
  let batch = Batch.make cfg ~signer_id:5 ~batch_id:42L ~eddsa:sk ~rng in
  Batch.announcement cfg batch

let ann_equal (a : Batch.announcement) (b : Batch.announcement) =
  a.Batch.signer_id = b.Batch.signer_id
  && a.Batch.ann_batch_id = b.Batch.ann_batch_id
  && a.Batch.root_sig = b.Batch.root_sig
  && a.Batch.ann_leaves = b.Batch.ann_leaves
  && a.Batch.full_keys = b.Batch.full_keys

let test_announcement_codec () =
  List.iter
    (fun reduce_bw ->
      let ann = make_announcement ~reduce_bw () in
      let encoded = Batch.encode_announcement ann in
      match Batch.decode_announcement encoded with
      | Error e -> Alcotest.fail e
      | Ok ann' ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip (reduce_bw=%b)" reduce_bw)
            true (ann_equal ann ann'))
    [ true; false ];
  (* decoder rejects malformed input without raising *)
  let encoded = Batch.encode_announcement (make_announcement ()) in
  List.iter
    (fun s ->
      match Batch.decode_announcement s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed accepted")
    [
      ""; "X"; String.sub encoded 0 40; encoded ^ "junk";
      "A" ^ String.make 100 '\xff';
    ]

let test_message_codec () =
  let open Dsig_tcpnet.Tcpnet in
  let m1 = Signed { msg = "hello \x00 world"; signature = String.make 100 's' } in
  (match decode_message (encode_message m1) with
  | Ok (Signed { msg; signature }) ->
      Alcotest.(check string) "msg" "hello \x00 world" msg;
      Alcotest.(check int) "sig len" 100 (String.length signature)
  | _ -> Alcotest.fail "signed roundtrip");
  let m2 = Announcement (make_announcement ()) in
  (match decode_message (encode_message m2) with
  | Ok (Announcement _) -> ()
  | _ -> Alcotest.fail "announcement roundtrip");
  match decode_message "Zgarbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad tag accepted"

let test_traced_codec () =
  let open Dsig_tcpnet.Tcpnet in
  let module T = Dsig_telemetry.Trace_ctx in
  let ctx = T.make ~signer:7 ~batch_id:99L ~key_index:3 ~origin:7 ~birth_us:12.5 in
  let inner = Signed { msg = "m"; signature = "s" } in
  (match decode_message (encode_message (Traced (ctx, inner))) with
  | Ok (Traced (ctx', Signed { msg; signature })) ->
      Alcotest.(check int64) "trace id" ctx.T.trace_id ctx'.T.trace_id;
      Alcotest.(check int) "origin" 7 ctx'.T.origin;
      Alcotest.(check (float 1e-9)) "birth" 12.5 ctx'.T.birth_us;
      Alcotest.(check string) "inner msg" "m" msg;
      Alcotest.(check string) "inner sig" "s" signature
  | _ -> Alcotest.fail "traced roundtrip");
  (* nested Traced frames are a protocol violation the decoder rejects *)
  let nested = "T" ^ T.encode ctx ^ encode_message (Traced (ctx, inner)) in
  (match decode_message nested with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nested traced accepted");
  (* truncated trace context *)
  match decode_message ("T" ^ String.make 10 '\x00') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short traced accepted"

let test_tcp_roundtrip () =
  (* a complete DSig flow over real sockets: announcements then signed
     messages, verified by a service thread *)
  let rng = Dsig_util.Rng.create 9L in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let verifier = Verifier.create cfg ~id:1 ~pki () in
  let mu = Mutex.create () in
  let verified = ref 0 and rejected = ref 0 in
  let server =
    Dsig_tcpnet.Tcpnet.listen ~port:0 ~on_message:(fun m ->
        Mutex.lock mu;
        (match m with
        | Dsig_tcpnet.Tcpnet.Announcement a -> ignore (Verifier.deliver verifier a)
        | Dsig_tcpnet.Tcpnet.Signed { msg; signature } ->
            if Verifier.verify verifier ~msg signature then incr verified else incr rejected
        | Dsig_tcpnet.Tcpnet.Traced (ctx, Dsig_tcpnet.Tcpnet.Signed { msg; signature }) ->
            if Verifier.verify_ctx verifier ~ctx ~msg signature then incr verified
            else incr rejected
        | Dsig_tcpnet.Tcpnet.Traced _ | Dsig_tcpnet.Tcpnet.Control _ | Dsig_tcpnet.Tcpnet.Checkpoint _ | Dsig_tcpnet.Tcpnet.Revoke _ -> ());
        Mutex.unlock mu)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Dsig_tcpnet.Tcpnet.stop server)
    (fun () ->
      let signer = Signer.create cfg ~id:0 ~eddsa:sk ~rng ~verifiers:[ 1 ] () in
      Signer.background_fill signer;
      let conn = Dsig_tcpnet.Tcpnet.connect ~port:(Dsig_tcpnet.Tcpnet.port server) () in
      List.iter
        (fun (_, a) -> Dsig_tcpnet.Tcpnet.send conn (Dsig_tcpnet.Tcpnet.Announcement a))
        (Signer.drain_outbox signer);
      for i = 1 to 5 do
        let msg = Printf.sprintf "sock-%d" i in
        Dsig_tcpnet.Tcpnet.send conn
          (Dsig_tcpnet.Tcpnet.Signed { msg; signature = Signer.sign signer msg })
      done;
      Dsig_tcpnet.Tcpnet.send conn
        (Dsig_tcpnet.Tcpnet.Signed { msg = "evil"; signature = Signer.sign signer "good" });
      let deadline = Unix.gettimeofday () +. 10.0 in
      let drained () =
        Mutex.lock mu;
        let d = !verified + !rejected >= 6 in
        Mutex.unlock mu;
        d
      in
      while (not (drained ())) && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      Dsig_tcpnet.Tcpnet.close conn;
      Mutex.lock mu;
      Alcotest.(check int) "verified" 5 !verified;
      Alcotest.(check int) "rejected" 1 !rejected;
      let st = Verifier.stats verifier in
      Alcotest.(check int) "all fast" 5 st.Verifier.fast;
      Mutex.unlock mu)

(* Each accepted descriptor is closed exactly once, by its reader
   thread. A second close in [stop] would hit whatever socket reused the
   number after the reader closed it: here, a socketpair opened between
   the client's disconnect and [stop], which must keep working. *)
let test_stop_closes_each_peer_once () =
  let module Tcp = Dsig_tcpnet.Tcpnet in
  let telemetry = Dsig_telemetry.Telemetry.create () in
  (* one "ping" through the pair; select bounds the wait for it *)
  let works (a, b) =
    try
      Unix.write_substring a "ping" 0 4 = 4
      && (match Unix.select [ b ] [] [] 1.0 with [], _, _ -> false | _ -> true)
      &&
      let buf = Bytes.create 4 in
      Unix.read b buf 0 4 = 4 && Bytes.to_string buf = "ping"
    with Unix.Unix_error (_, _, _) -> false
  in
  let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> () in
  let kept = ref [] in
  (* a write to a pair whose other end was closed must fail, not kill
     the test process *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe sigpipe;
      List.iter
        (fun (a, b) ->
          close_quietly a;
          close_quietly b)
        !kept)
    (fun () ->
      for cycle = 1 to 20 do
        let got = Atomic.make 0 in
        let server = Tcp.listen ~telemetry ~port:0 ~on_message:(fun _ -> Atomic.incr got) () in
        let conn = Tcp.connect ~telemetry ~port:(Tcp.port server) () in
        Tcp.send conn (Tcp.Checkpoint "c");
        let deadline = Unix.gettimeofday () +. 10.0 in
        while Atomic.get got = 0 && Unix.gettimeofday () < deadline do
          Thread.delay 0.001
        done;
        Tcp.close conn;
        (* let the reader see EOF and close its descriptor *)
        Thread.delay 0.02;
        let pair = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        kept := pair :: !kept;
        Tcp.stop server;
        let check what ok = Alcotest.(check bool) (Printf.sprintf "cycle %d: %s" cycle what) true ok in
        check "frame received" (Atomic.get got = 1);
        check "separate socket intact" (works pair)
      done;
      Alcotest.(check bool) "every separate socket still works" true (List.for_all works !kept))

let counter_value snap name =
  match Dsig_telemetry.Registry.Snapshot.find snap name with
  | Some (Dsig_telemetry.Registry.Snapshot.Counter n) -> n
  | _ -> 0

(* Satellite: the announcement reliability loop over real sockets. An
   announcement tracked but never delivered comes due for re-announce
   (counter moves); once it is delivered and the verifier's ACK travels
   back over a control connection, the runtime settles. *)
let test_reannounce_ack_loop () =
  let module Tcp = Dsig_tcpnet.Tcpnet in
  let tel = Dsig_telemetry.Telemetry.create () in
  let rng = Dsig_util.Rng.create 31L in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  let rt =
    Runtime.create cfg ~id:0 ~eddsa:sk ~seed:99L
      ~options:Dsig.Options.(default |> with_telemetry tel)
      ()
  in
  let cp = Dsig.Control_plane.of_runtime rt in
  Fun.protect
    ~finally:(fun () -> Runtime.shutdown rt)
    (fun () ->
      (* signing guarantees at least one batch announcement exists *)
      ignore (Runtime.sign rt "reliability");
      let ann =
        match Runtime.drain_announcements rt with
        | a :: _ -> a
        | [] -> Alcotest.fail "no announcement after sign"
      in
      Runtime.track_announcement rt ann ~dests:[ 1 ];
      Alcotest.(check int) "one unacked" 1 (Runtime.unacked_announcements rt);
      (* the default backoff base is 500 us of wall time; after a real
         delay the destination must come due *)
      Thread.delay 0.01;
      let due = Dsig.Control_plane.step cp ~now:(Dsig_telemetry.Telemetry.now tel) in
      Alcotest.(check bool) "due for re-announce" true (due <> []);
      let snap = Dsig_telemetry.Telemetry.snapshot tel in
      Alcotest.(check bool) "reannounce counter moved" true
        (counter_value snap "dsig_runtime_reannounces_total" > 0);
      (* now close the loop: the verifier ACKs over a real control
         connection and the runtime settles the destination *)
      let ctrl_server =
        Tcp.listen ~port:0
          ~on_message:(fun m ->
            match m with
            | Tcp.Control c -> ignore (Dsig.Control_plane.deliver cp c)
            | Tcp.Announcement _ | Tcp.Signed _ | Tcp.Traced _ | Tcp.Checkpoint _ | Tcp.Revoke _ -> ())
          ()
      in
      Fun.protect
        ~finally:(fun () -> Tcp.stop ctrl_server)
        (fun () ->
          let ctrl_conn = Tcp.connect ~port:(Tcp.port ctrl_server) () in
          Fun.protect
            ~finally:(fun () -> Tcp.close ctrl_conn)
            (fun () ->
              let pki = Pki.create () in
              Pki.bind pki ~id:0 ~epoch:0 pk;
              let verifier =
                Verifier.create cfg ~id:1 ~pki
                  ~options:Dsig.Options.(default |> with_telemetry tel)
                  ~control:(fun c -> Tcp.send ctrl_conn (Tcp.Control c))
                  ()
              in
              Alcotest.(check bool) "delivered" true (Verifier.deliver verifier ann);
              let deadline = Unix.gettimeofday () +. 10.0 in
              while Runtime.unacked_announcements rt > 0 && Unix.gettimeofday () < deadline do
                Thread.delay 0.001
              done;
              Alcotest.(check int) "settled after ACK" 0 (Runtime.unacked_announcements rt);
              let snap = Dsig_telemetry.Telemetry.snapshot tel in
              Alcotest.(check bool) "ack counter moved" true
                (counter_value snap "dsig_runtime_acks_total" >= 1))))

(* Prometheus exposition validity: every non-comment line is
   [name[{labels}] value] with a legal metric name and a numeric
   value. *)
let valid_prom_line line =
  line = ""
  || line.[0] = '#'
  ||
  match String.rindex_opt line ' ' with
  | None -> false
  | Some i ->
      let value = String.sub line (i + 1) (String.length line - i - 1) in
      let metric = String.sub line 0 i in
      let name =
        match String.index_opt metric '{' with
        | Some j -> String.sub metric 0 j
        | None -> metric
      in
      name <> ""
      && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
      && String.for_all
           (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
           name
      && float_of_string_opt value <> None

(* Every exposed family must be announced by a [# HELP] and a [# TYPE]
   comment before its samples, and every sample must belong to an
   announced family (histograms expose [name_bucket]/[_sum]/[_count]
   under family [name]). Keeps this parser honest against the
   exporter's header emission. *)
let check_prom_families lines =
  let word_after prefix l =
    let pl = String.length prefix in
    if String.length l > pl && String.sub l 0 pl = prefix then
      let rest = String.sub l pl (String.length l - pl) in
      match String.index_opt rest ' ' with
      | Some i -> Some (String.sub rest 0 i)
      | None -> Some rest
    else None
  in
  let helped = Hashtbl.create 16 and typed = Hashtbl.create 16 in
  List.iter
    (fun l ->
      (match word_after "# HELP " l with Some n -> Hashtbl.replace helped n () | None -> ());
      match word_after "# TYPE " l with Some n -> Hashtbl.replace typed n () | None -> ())
    lines;
  let family name =
    let strip suffix =
      let ns = String.length suffix and nn = String.length name in
      if nn > ns && String.sub name (nn - ns) ns = suffix then
        Some (String.sub name 0 (nn - ns))
      else None
    in
    let candidates =
      List.filter_map strip [ "_bucket"; "_sum"; "_count" ]
      |> List.filter (Hashtbl.mem typed)
    in
    match candidates with f :: _ -> f | [] -> name
  in
  List.iteri
    (fun i l ->
      if l <> "" && l.[0] <> '#' then begin
        let name =
          match String.index_opt l '{' with
          | Some j -> String.sub l 0 j
          | None -> ( match String.index_opt l ' ' with Some j -> String.sub l 0 j | None -> l)
        in
        let f = family name in
        if not (Hashtbl.mem typed f) then
          Alcotest.failf "line %d: sample %s has no # TYPE for family %s" i name f;
        if not (Hashtbl.mem helped f) then
          Alcotest.failf "line %d: sample %s has no # HELP for family %s" i name f
      end)
    lines;
  Hashtbl.iter
    (fun n () ->
      if not (Hashtbl.mem helped n) then Alcotest.failf "family %s has # TYPE but no # HELP" n)
    typed

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The scrape endpoint serves the instrumented §6 applications: run
   tiny kv/trading/bft workloads on one bundle, then check /metrics is
   valid Prometheus carrying their namespaced series. *)
let test_scrape_endpoint () =
  let open Dsig_simnet in
  let module Scrape = Dsig_tcpnet.Scrape in
  let tel = Dsig_telemetry.Telemetry.create () in
  Dsig_telemetry.Lifecycle.enable tel.Dsig_telemetry.Telemetry.lifecycle;
  let sim = Sim.create () in
  let accept ~client:_ ~msg:_ ~signature:_ = true in
  let sign ~msg:_ = "sig" in
  let kv_net = Net.create sim ~nodes:2 () in
  let _kv = Dsig_kv.Kv_server.start ~sim ~net:kv_net ~node:0 ~verify:accept ~telemetry:tel () in
  Sim.spawn sim (fun () ->
      ignore
        (Dsig_kv.Kv_server.request ~net:kv_net ~me:1 ~server:0 ~sign ~seq:0
           (Dsig_kv.Store.Command.Put ("k", "v"))));
  let tr_net = Net.create sim ~nodes:2 () in
  let _tr =
    Dsig_trading.Trading_server.start ~sim ~net:tr_net ~node:0 ~verify:accept ~telemetry:tel ()
  in
  Sim.spawn sim (fun () ->
      ignore
        (Dsig_trading.Trading_server.request ~net:tr_net ~me:1 ~server:0 ~sign ~seq:0
           (Dsig_trading.Orderbook.Request.Limit
              { side = Dsig_trading.Orderbook.Buy; price = 10; qty = 1 })));
  let bft =
    Dsig_bft.Ubft.create ~sim ~auth:Dsig_bft.Auth.none ~n:3 ~f:1 ~telemetry:tel
      ~on_commit:(fun ~replica:_ ~rid:_ ~payload:_ -> ())
      ~on_reply:(fun ~rid:_ ~path:_ -> ())
      ()
  in
  Sim.spawn sim (fun () -> Dsig_bft.Ubft.request bft ~rid:0 "8-bytes!");
  Sim.run ~until:100_000.0 sim;
  let srv = Scrape.start ~telemetry:tel ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Scrape.stop srv)
    (fun () ->
      let port = Scrape.port srv in
      (match Scrape.fetch ~port ~path:"/metrics" with
      | Error e -> Alcotest.fail ("/metrics: " ^ e)
      | Ok body ->
          let lines = String.split_on_char '\n' body in
          List.iteri
            (fun i l ->
              if not (valid_prom_line l) then
                Alcotest.failf "invalid prometheus line %d: %S" i l)
            lines;
          check_prom_families lines;
          let has name =
            let n = String.length name in
            List.exists
              (fun l ->
                String.length l > n
                && String.sub l 0 n = name
                && (l.[n] = ' ' || l.[n] = '{'))
              lines
          in
          List.iter
            (fun m -> Alcotest.(check bool) ("series " ^ m) true (has m))
            [
              "dsig_kv_requests_total"; "dsig_trading_orders_total"; "dsig_bft_commits_total";
              "dsig_scrape_requests_total";
            ]);
      (match Scrape.fetch ~port ~path:"/planes" with
      | Ok body ->
          Alcotest.(check bool) "planes header" true
            (String.length body >= 8 && String.sub body 0 8 = "started ")
      | Error e -> Alcotest.fail ("/planes: " ^ e));
      (match Scrape.fetch ~port ~path:"/metrics.json" with
      | Ok body ->
          Alcotest.(check bool) "json carries lifecycle" true (contains body "\"lifecycle\"")
      | Error e -> Alcotest.fail ("/metrics.json: " ^ e));
      match Scrape.fetch ~port ~path:"/does-not-exist" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown path served")

(* Satellite: the /health route turns per-plane lifecycle SLO verdicts
   into an HTTP status — 200 with a JSON verdict body when every plane
   is within its p99 budget, 503 when any plane blows it. *)
let test_scrape_health () =
  let module Scrape = Dsig_tcpnet.Scrape in
  let module Lifecycle = Dsig_telemetry.Lifecycle in
  let tel = Dsig_telemetry.Telemetry.create () in
  let lc = tel.Dsig_telemetry.Telemetry.lifecycle in
  Lifecycle.enable lc;
  (* one full span fed by hand: every plane gets a few-hundred-µs
     observation, so verdicts depend only on the budgets *)
  Lifecycle.sign lc ~trace_id:1L ~origin:0 ~birth_us:0.0 ~dur_us:100.0;
  Lifecycle.admit lc ~signer:0 ~batch_id:1L ~latency_us:200.0;
  Lifecycle.verify lc ~trace_id:1L ~at_us:500.0 ~dur_us:50.0 ();
  (* default budgets (≥ 10 ms per plane) comfortably fit: 200 *)
  let healthy = Scrape.start ~telemetry:tel ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Scrape.stop healthy)
    (fun () ->
      match Scrape.fetch ~port:(Scrape.port healthy) ~path:"/health" with
      | Ok body ->
          Alcotest.(check bool) "healthy status" true (contains body "\"status\":\"ok\"");
          Alcotest.(check bool) "per-plane verdicts" true (contains body "\"plane\":\"sign\"")
      | Error e -> Alcotest.fail ("/health (healthy): " ^ e));
  (* a 1 µs sign budget cannot hold against the 100 µs observation: 503,
     surfaced by fetch as the non-200 status line *)
  let strict =
    Scrape.start ~telemetry:tel
      ~health_budgets_us:[ (Lifecycle.Sign, 1.0) ]
      ~port:0 ()
  in
  Fun.protect
    ~finally:(fun () -> Scrape.stop strict)
    (fun () ->
      match Scrape.fetch ~port:(Scrape.port strict) ~path:"/health" with
      | Ok body -> Alcotest.failf "blown budget served 200: %s" body
      | Error e -> Alcotest.(check bool) "503 status line" true (contains e "503"));
  (* a bundle that never saw traffic is failing, not silently healthy *)
  let empty = Scrape.start ~telemetry:(Dsig_telemetry.Telemetry.create ()) ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Scrape.stop empty)
    (fun () ->
      match Scrape.fetch ~port:(Scrape.port empty) ~path:"/health" with
      | Ok body -> Alcotest.failf "no data served 200: %s" body
      | Error e -> Alcotest.(check bool) "no data is 503" true (contains e "503"))

let codec_fuzz =
  let open QCheck in
  [
    Test.make ~name:"message decode never crashes" ~count:300 (string_of_size Gen.(0 -- 400))
      (fun junk -> match Dsig_tcpnet.Tcpnet.decode_message junk with Ok _ | Error _ -> true);
    Test.make ~name:"signed roundtrip arbitrary payloads" ~count:150
      (pair (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 200)))
      (fun (msg, signature) ->
        match
          Dsig_tcpnet.Tcpnet.decode_message
            (Dsig_tcpnet.Tcpnet.encode_message (Dsig_tcpnet.Tcpnet.Signed { msg; signature }))
        with
        | Ok (Dsig_tcpnet.Tcpnet.Signed { msg = m; signature = s }) -> m = msg && s = signature
        | _ -> false);
  ]

(* The /timeseries and /alerts routes serve the mounted sampler's and
   alerter's JSON (404 when not mounted). *)
let test_scrape_timeseries_routes () =
  let module Scrape = Dsig_tcpnet.Scrape in
  let module Ts = Dsig_timeseries in
  let tel = Dsig_telemetry.Telemetry.create () in
  let sampler = Ts.Sampler.create tel.Dsig_telemetry.Telemetry.registry in
  Ts.Sampler.probe sampler ~name:"svc_gauge" ~kind:Ts.Series.Gauge (fun () -> 4.5);
  let alerts =
    Ts.Alert.create ~telemetry:tel sampler
      [
        Ts.Alert.rule ~name:"probe_slo"
          (Ts.Alert.Latency { series = "svc_gauge"; budget_us = 10.0 });
      ]
  in
  ignore (Ts.Sampler.sample sampler ~now_us:1000.0);
  ignore (Ts.Alert.step alerts ~now_us:1000.0);
  let srv = Scrape.start ~telemetry:tel ~timeseries:sampler ~alerts ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Scrape.stop srv)
    (fun () ->
      let port = Scrape.port srv in
      (match Scrape.fetch ~port ~path:"/timeseries" with
      | Error e -> Alcotest.fail ("/timeseries: " ^ e)
      | Ok body -> (
          match Ts.Sampler.of_json body with
          | Error e -> Alcotest.failf "/timeseries body does not parse: %s" e
          | Ok rows ->
              let _, kind, points =
                List.find (fun (n, _, _) -> n = "svc_gauge") rows
              in
              Alcotest.(check bool) "probe kind survives" true (kind = Ts.Series.Gauge);
              Alcotest.(check (list (pair (float 0.0) (float 0.0))))
                "probe points served" [ (1000.0, 4.5) ] points));
      match Scrape.fetch ~port ~path:"/alerts" with
      | Error e -> Alcotest.fail ("/alerts: " ^ e)
      | Ok body ->
          Alcotest.(check bool) "alerts schema" true (contains body "\"dsig-alerts-v1\"");
          Alcotest.(check bool) "rule listed" true (contains body "\"probe_slo\""));
  (* not mounted -> 404, same as any unknown path *)
  let bare = Scrape.start ~telemetry:tel ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Scrape.stop bare)
    (fun () ->
      (match Scrape.fetch ~port:(Scrape.port bare) ~path:"/timeseries" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "/timeseries served without a sampler");
      match Scrape.fetch ~port:(Scrape.port bare) ~path:"/alerts" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "/alerts served without an alerter")

let suites =
  [
    ( "tcpnet",
      [
        Alcotest.test_case "announcement codec" `Quick test_announcement_codec;
        Alcotest.test_case "message codec" `Quick test_message_codec;
        Alcotest.test_case "traced codec" `Quick test_traced_codec;
        Alcotest.test_case "socket roundtrip" `Quick test_tcp_roundtrip;
        Alcotest.test_case "stop closes each peer once" `Quick test_stop_closes_each_peer_once;
        Alcotest.test_case "reannounce/ack loop" `Quick test_reannounce_ack_loop;
        Alcotest.test_case "scrape endpoint" `Quick test_scrape_endpoint;
        Alcotest.test_case "health route verdicts" `Quick test_scrape_health;
        Alcotest.test_case "timeseries/alerts routes" `Quick test_scrape_timeseries_routes;
      ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false) codec_fuzz );
  ]
