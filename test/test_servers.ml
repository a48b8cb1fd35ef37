(* End-to-end §6 deployments over the simulated network with real DSig
   signatures: the KV server and the trading venue execute genuine
   store/matching logic behind verify-then-execute, with announcements
   flowing through the modeled network (Deploy). *)

open Dsig_simnet
module Deploy = Dsig_deploy.Deploy

let cfg = Dsig.Config.make ~batch_size:8 ~queue_threshold:8 (Dsig.Config.wots ~d:4)

(* a deployment where node 0 is the server and 1.. are clients *)
let with_deployment ~n f =
  let sim = Sim.create () in
  let deploy = Deploy.create sim cfg ~n () in
  (* let background planes warm up so clients hit the fast path *)
  Sim.run ~until:2_000.0 sim;
  f sim deploy

let verify_fn deploy ~client:_ ~msg ~signature = Deploy.verify deploy ~verifier:0 ~msg signature

let test_kv_server_end_to_end () =
  with_deployment ~n:3 (fun sim deploy ->
      let net = Net.create sim ~nodes:3 () in
      let server = Dsig_kv.Kv_server.start ~sim ~net ~node:0 ~verify:(verify_fn deploy) () in
      let replies = ref [] in
      Sim.spawn sim (fun () ->
          let sign ~msg = Deploy.sign deploy ~signer:1 ~hint:[ 0 ] msg in
          let r1 =
            Dsig_kv.Kv_server.request ~net ~me:1 ~server:0 ~sign ~seq:0
              (Dsig_kv.Store.Command.Put ("color", "blue"))
          in
          let r2 =
            Dsig_kv.Kv_server.request ~net ~me:1 ~server:0 ~sign ~seq:1
              (Dsig_kv.Store.Command.Get "color")
          in
          (* replayed sequence number must be rejected *)
          let r3 =
            Dsig_kv.Kv_server.request ~net ~me:1 ~server:0 ~sign ~seq:1
              (Dsig_kv.Store.Command.Put ("color", "red"))
          in
          replies := [ r1; r2; r3 ]);
      Sim.spawn sim (fun () ->
          let sign ~msg = Deploy.sign deploy ~signer:2 ~hint:[ 0 ] msg in
          ignore
            (Dsig_kv.Kv_server.request ~net ~me:2 ~server:0 ~sign ~seq:0
               (Dsig_kv.Store.Command.Sadd ("tags", "fast"))));
      Sim.run ~until:50_000.0 sim;
      (match !replies with
      | [ r1; r2; r3 ] ->
          Alcotest.(check string) "put ok" "OK" r1;
          Alcotest.(check string) "get" "blue" r2;
          Alcotest.(check bool) "replay rejected" true
            (String.length r3 >= 3 && String.sub r3 0 3 = "ERR")
      | _ -> Alcotest.fail "missing replies");
      Alcotest.(check int) "served" 3 (Dsig_kv.Kv_server.requests_served server);
      Alcotest.(check int) "rejected" 1 (Dsig_kv.Kv_server.requests_rejected server);
      Alcotest.(check int) "store keys" 2 (Dsig_kv.Store.size (Dsig_kv.Kv_server.store server));
      (* the value never became red *)
      Alcotest.(check bool) "no replay effect" true
        (Dsig_kv.Store.exec (Dsig_kv.Kv_server.store server) (Dsig_kv.Store.Command.Get "color")
        = Dsig_kv.Store.Reply.Value "blue");
      (* third-party audit of the signed log *)
      let auditor = Dsig.Verifier.create cfg ~id:50 ~pki:(Deploy.pki deploy 0) () in
      let (valid, invalid), _ =
        Dsig_audit.Audit.audit
          (Dsig_kv.Kv_server.audit_log server)
          ~verify:(fun ~client:_ ~msg s -> Dsig.Verifier.verify auditor ~msg s)
      in
      Alcotest.(check int) "audit valid" 3 valid;
      Alcotest.(check int) "audit invalid" 0 invalid)

let test_kv_server_rejects_forgery () =
  with_deployment ~n:2 (fun sim deploy ->
      let net = Net.create sim ~nodes:2 () in
      let telemetry = Dsig_telemetry.Telemetry.create () in
      let server =
        Dsig_kv.Kv_server.start ~sim ~net ~node:0 ~verify:(verify_fn deploy) ~telemetry ()
      in
      let reply = ref "" and malformed_reply = ref "" in
      Sim.spawn sim (fun () ->
          (* sign one command, submit a different one under that signature *)
          let genuine = Dsig_kv.Store.Command.encode ~seq:0 (Dsig_kv.Store.Command.Get "x") in
          let signature = Deploy.sign deploy ~signer:1 ~hint:[ 0 ] genuine in
          let forged = Dsig_kv.Store.Command.encode ~seq:0 (Dsig_kv.Store.Command.Del "x") in
          Net.send net ~src:1 ~dst:0 ~bytes:(String.length forged + String.length signature)
            (forged, signature);
          let _, _, (r, _) = Net.recv net ~node:1 in
          reply := r;
          (* a raw frame that is not an encoded command at all *)
          Net.send net ~src:1 ~dst:0 ~bytes:8 ("garbage", "");
          let _, _, (r, _) = Net.recv net ~node:1 in
          malformed_reply := r);
      Sim.run ~until:50_000.0 sim;
      Alcotest.(check string) "forgery rejected" "ERR bad signature" !reply;
      Alcotest.(check string) "malformed command rejected" "ERR malformed" !malformed_reply;
      Alcotest.(check int) "nothing served" 0 (Dsig_kv.Kv_server.requests_served server);
      let counter name =
        match
          Dsig_telemetry.Registry.Snapshot.find (Dsig_telemetry.Telemetry.snapshot telemetry) name
        with
        | Some (Dsig_telemetry.Registry.Snapshot.Counter n) -> n
        | _ -> -1
      in
      Alcotest.(check int) "both rejections counted" 2
        (Dsig_kv.Kv_server.requests_rejected server);
      Alcotest.(check int) "snapshot agrees" 2 (counter "dsig_kv_rejected_total");
      Alcotest.(check int) "every request counted" 2 (counter "dsig_kv_requests_total"))

let test_trading_server_end_to_end () =
  with_deployment ~n:3 (fun sim deploy ->
      let net = Net.create sim ~nodes:3 () in
      let server =
        Dsig_trading.Trading_server.start ~sim ~net ~node:0 ~verify:(verify_fn deploy) ()
      in
      let got = ref [] in
      let order_of_1 = ref 0 in
      Sim.spawn sim (fun () ->
          let sign ~msg = Deploy.sign deploy ~signer:1 ~hint:[ 0 ] msg in
          (match
             Dsig_trading.Trading_server.request ~net ~me:1 ~server:0 ~sign ~seq:0
               (Dsig_trading.Orderbook.Request.Limit
                  { side = Dsig_trading.Orderbook.Sell; price = 100; qty = 10 })
           with
          | Dsig_trading.Trading_server.Accepted { order_id; fills } ->
              order_of_1 := order_id;
              got := `Sell (order_id, List.length fills) :: !got
          | _ -> ());
          (* client 2 crosses; wait for its turn *)
          Sim.sleep 100.0;
          (* cancelling someone else's order must fail even when signed *)
          match
            Dsig_trading.Trading_server.request ~net ~me:1 ~server:0 ~sign ~seq:1
              (Dsig_trading.Orderbook.Request.Cancel { order_id = !order_of_1 + 1 })
          with
          | Dsig_trading.Trading_server.Cancelled ok -> got := `CancelOther ok :: !got
          | _ -> ());
      Sim.spawn sim (fun () ->
          Sim.sleep 50.0;
          let sign ~msg = Deploy.sign deploy ~signer:2 ~hint:[ 0 ] msg in
          match
            Dsig_trading.Trading_server.request ~net ~me:2 ~server:0 ~sign ~seq:0
              (Dsig_trading.Orderbook.Request.Limit
                 { side = Dsig_trading.Orderbook.Buy; price = 101; qty = 4 })
          with
          | Dsig_trading.Trading_server.Accepted { fills; _ } ->
              got := `Buy (List.length fills) :: !got
          | _ -> ());
      Sim.run ~until:50_000.0 sim;
      let got = List.rev !got in
      (match got with
      | [ `Sell (_, 0); `Buy 1; `CancelOther false ] -> ()
      | _ -> Alcotest.fail "unexpected trade sequence");
      let trades = Dsig_trading.Trading_server.trades server in
      Alcotest.(check int) "one trade" 1 (List.length trades);
      (match trades with
      | [ f ] ->
          Alcotest.(check int) "at maker price" 100 f.Dsig_trading.Orderbook.price;
          Alcotest.(check int) "qty" 4 f.Dsig_trading.Orderbook.qty
      | _ -> ());
      (* book still has 6 resting *)
      Alcotest.(check (option (pair int int))) "rest"
        (Some (100, 6))
        (Dsig_trading.Orderbook.best_ask (Dsig_trading.Trading_server.book server));
      (* signed trail auditable *)
      let auditor = Dsig.Verifier.create cfg ~id:60 ~pki:(Deploy.pki deploy 0) () in
      let (valid, invalid), _ =
        Dsig_audit.Audit.audit
          (Dsig_trading.Trading_server.audit_log server)
          ~verify:(fun ~client:_ ~msg s -> Dsig.Verifier.verify auditor ~msg s)
      in
      Alcotest.(check int) "audit" 3 valid;
      Alcotest.(check int) "none invalid" 0 invalid)

let suites =
  [
    ( "servers",
      [
        Alcotest.test_case "kv end-to-end (real dsig over simnet)" `Quick test_kv_server_end_to_end;
        Alcotest.test_case "kv rejects forgery" `Quick test_kv_server_rejects_forgery;
        Alcotest.test_case "trading end-to-end" `Quick test_trading_server_end_to_end;
      ] );
  ]
