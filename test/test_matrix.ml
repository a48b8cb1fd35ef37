(* Configuration matrix: every HBSS variant x hash function end to end
   through System (sign, fast verify, wrong-message rejection, exact
   wire size), plus randomized-topology agreement for CTB. *)

open Dsig
module Hash = Dsig_hashes.Hash

let configs =
  let wots = List.concat_map (fun d -> List.map (fun h -> (Config.wots ~d, h)) Hash.all) [ 2; 4; 8; 16 ] in
  let horsf =
    List.concat_map (fun k -> List.map (fun h -> (Config.hors_factorized ~k, h)) Hash.all) [ 32; 64 ]
  in
  let horsm =
    List.concat_map
      (fun k -> List.map (fun h -> (Config.hors_merklified ~k (), h)) Hash.all)
      [ 32; 64 ]
  in
  (* the large-key k=16 variants once, on the recommended hash *)
  let big = [ (Config.hors_factorized ~k:16, Hash.Haraka); (Config.hors_merklified ~k:16 (), Hash.Haraka) ] in
  wots @ horsf @ horsm @ big

let check_config cfg hbss =
      let name = Config.describe cfg in
      let sys = System.create cfg ~n:2 () in
      let msg = "matrix " ^ name in
      let signature = System.sign sys ~signer:0 ~hint:[ 1 ] msg in
      (* exact wire size for fixed-size schemes; factorized HORS varies
         slightly with duplicate indices *)
      (match hbss with
      | Config.Hors_factorized p ->
          (* duplicate indices shrink the revealed set and grow the
             complement: up to k extra elements (k=64, t=256 commonly
             collides ~7 times) *)
          Alcotest.(check bool) (name ^ " size close") true
            (abs (String.length signature - Wire.size_bytes cfg)
            <= p.Dsig_hbss.Params.Hors.k * p.Dsig_hbss.Params.Hors.n)
      | Config.Wots _ | Config.Hors_merklified _ ->
          Alcotest.(check int) (name ^ " exact size") (Wire.size_bytes cfg)
            (String.length signature));
      Alcotest.(check bool) (name ^ " verifies") true (System.verify sys ~verifier:1 ~msg signature);
      Alcotest.(check bool) (name ^ " fast path") true
        ((Verifier.stats (System.verifier sys 1)).Verifier.fast = 1);
      Alcotest.(check bool) (name ^ " rejects") false
        (System.verify sys ~verifier:1 ~msg:(msg ^ "!") signature)

let test_matrix () =
  List.iter
    (fun (hbss, hash) ->
      check_config (Config.make ~hash ~batch_size:4 ~queue_threshold:4 hbss) hbss)
    configs

(* CTB agreement across randomized link latencies and fault placements:
   whatever the timing, no two honest nodes deliver different payloads
   for the same broadcast, and honest broadcasters' messages deliver. *)
let ctb_agreement_random_topologies =
  QCheck.Test.make ~name:"ctb agreement over random topologies" ~count:25
    QCheck.(triple (int_range 0 3) (int_range 0 10_000) (int_range 0 2))
    (fun (faulty, seed, fault_kind) ->
      let open Dsig_bft in
      let auth =
        Auth.dsig_modeled Dsig_costmodel.Costmodel.paper_dalek
          (Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4))
      in
      let behavior i =
        if i = faulty then
          match fault_kind with 0 -> Ctb.Honest | 1 -> Ctb.Silent | _ -> Ctb.Corrupt
        else Ctb.Honest
      in
      let rng = Dsig_util.Rng.create (Int64.of_int seed) in
      let latency_us = 0.5 +. Dsig_util.Rng.float rng 5.0 in
      let sim = Dsig_simnet.Sim.create () in
      let deliveries = ref [] in
      let cluster =
        Ctb.create ~sim ~auth ~n:4 ~f:1 ~behavior ~latency_us
          ~message_loss:(Dsig_util.Rng.float rng 0.02, Int64.of_int (seed + 1))
          ~on_deliver:(fun ~node ~bcaster ~bcast_id ~payload ->
            deliveries := (node, bcaster, bcast_id, payload) :: !deliveries)
          ()
      in
      for i = 0 to 5 do
        Ctb.broadcast cluster ~from:(i mod 4) ~bcast_id:i (Printf.sprintf "p%d-%d" i seed)
      done;
      Dsig_simnet.Sim.run ~until:200_000.0 sim;
      (* agreement *)
      let by_id = Hashtbl.create 16 in
      List.for_all
        (fun (_, bcaster, id, payload) ->
          match Hashtbl.find_opt by_id (bcaster, id) with
          | None ->
              Hashtbl.add by_id (bcaster, id) payload;
              true
          | Some p -> p = payload)
        !deliveries)

let suites =
  [
    ( "matrix",
      Alcotest.test_case "all schemes x hashes" `Slow test_matrix
      :: List.map (QCheck_alcotest.to_alcotest ~long:false) [ ctb_agreement_random_topologies ]
    );
  ]
