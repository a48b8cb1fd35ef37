open Dsig_simnet
module Eddsa = Dsig_ed25519.Eddsa
module Rng = Dsig_util.Rng
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric
module Translog = Dsig_translog.Translog
module Checkpoint = Dsig_translog.Checkpoint
module Monitor = Dsig_translog.Monitor
module Revocation = Dsig_keylife.Revocation
module Registry = Dsig_telemetry.Registry
module Ts = Dsig_timeseries

type party = { signer : Dsig.Signer.t; verifier : Dsig.Verifier.t; telemetry : Tel.t }

(* --- the per-node time-series plane --- *)

type timeseries_opts = {
  ts_poll_us : float;
  ts_capacity : int;
  ts_slow_share_budget : float;
  ts_fast : Ts.Alert.window;
  ts_slow : Ts.Alert.window;
}

(* sim-scale defaults: windows of a few virtual milliseconds, a 10%
   slow-path budget, and a fire threshold of 2x budget — tuned so a
   faultmatrix-style run (signing every ~150 µs) fires during a real
   fault window but not on a single slow verification *)
let timeseries ?(poll_us = 500.0) ?(capacity = 1024) ?(slow_share_budget = 0.1)
    ?(fast_window_us = 3_000.0) ?(slow_window_us = 10_000.0) ?(max_burn = 2.0) () =
  if poll_us < 0.0 then invalid_arg "Deploy.timeseries: poll_us must be non-negative";
  {
    ts_poll_us = poll_us;
    ts_capacity = capacity;
    ts_slow_share_budget = slow_share_budget;
    ts_fast = { Ts.Alert.window_us = fast_window_us; max_burn };
    ts_slow = { Ts.Alert.window_us = slow_window_us; max_burn };
  }

let slow_burn_rule = "node_slow_path_burn"

(* announcements carry the virtual send time so delivery can record the
   time spent on the (modeled) wire *)
type payload =
  | P_announce of float * Dsig.Batch.announcement
  | P_control of Dsig.Batch.control
  | P_checkpoint of string
  | P_revoke of string

(* the transparency plane of one deployment: one shared log (every
   signer appends), one log identity, one monitor per party *)
type transparency = {
  log : Translog.t;
  log_id : int;
  log_sk : Eddsa.secret_key;  (* kept for the equivocation experiments *)
  log_pk : Eddsa.public_key;
  monitors : Monitor.t array;
  mutable gossiped : int;
  mutable broadcast : string -> unit;  (* wired once the net exists *)
}

(* announcement counts, published as probes; a record of their own so
   the signers' send callbacks can count before [t] exists *)
type counts = { mutable sent : int; mutable delivered : int }

type t = {
  cfg : Dsig.Config.t;
  parties : party array;
  (* one directory per node: a revocation is local knowledge until its
     record arrives over the network, like every other control frame *)
  pkis : Dsig.Pki.t array;
  auth_sk : Eddsa.secret_key;
  telemetry : Tel.t;
  net : payload Net.t;
  transparency : transparency option;
  tsplane : (Ts.Sampler.t * Ts.Alert.t) array option;
  c_rev_issued : Metric.Counter.t;
  enforce_revocation : int -> string -> unit;
  counts : counts;
}

let create ?(latency_us = 1.0) ?(bg_poll_us = 5.0) ?(reannounce_poll_us = 50.0)
    ?(groups = fun _ -> []) ?(seed = 97L) ?(options = Dsig.Options.default)
    ?translog_dir ?(translog_poll_us = 200.0) ?(log_id = 0) ?timeseries:ts_opts ?verifiers_of sim
    cfg ~n () =
  let telemetry = options.Dsig.Options.telemetry in
  (* one registry per party, so each party's counts and gauges keep
     their one dsig_* name (a shared registry would sum the counters
     and keep only the last writer's gauges); the lifecycle and clock
     stay shared, so a sign on one party joins its verify on
     another *)
  let party_tel = Array.init n (fun _ -> { telemetry with Tel.registry = Registry.create () }) in
  let master = Rng.create seed in
  let keys = Array.init n (fun _ -> Eddsa.generate (Rng.split master)) in
  (* deployment-level revoking authority — a distinct identity, so a
     compromised signer key cannot sign its own un-revocation *)
  let auth_sk, auth_pk = Eddsa.generate (Rng.split master) in
  let pkis =
    Array.init n (fun _ ->
        let pki = Dsig.Pki.create () in
        Array.iteri (fun id (_, pk) -> Dsig.Pki.bind pki ~id ~epoch:0 pk) keys;
        pki)
  in
  (* transparency plane: one shared durable log for the whole
     deployment, its own signing identity (distinct from every party's),
     and a monitor per party fed by gossiped checkpoints *)
  let transparency =
    match translog_dir with
    | None -> None
    | Some dir -> (
        match Translog.open_ ~telemetry ~fsync:false ~dir () with
        | Error e -> failwith ("Deploy.create: " ^ e)
        | Ok (log, _report) ->
            let log_sk, log_pk = Eddsa.generate (Rng.split master) in
            let log_vk = Option.get (Eddsa.verifying_key log_pk) in
            let monitors =
              Array.init n (fun id ->
                  Monitor.create ~telemetry:party_tel.(id) ~log_id
                    ~verify:(fun ~msg ~signature -> Eddsa.verify_with log_vk msg signature)
                    ())
            in
            Some { log; log_id; log_sk; log_pk; monitors; gossiped = 0; broadcast = ignore })
  in
  (* per-node time-series plane: one sampler + alerter per party,
     ticked by the signer's control-plane pump via Options.sample_hook,
     so timelines advance on the same virtual clock as the
     re-announcements they observe *)
  let tsplane =
    Option.map
      (fun o ->
        Array.init n (fun id ->
            let telemetry = party_tel.(id) in
            let sampler =
              Ts.Sampler.create ~capacity:o.ts_capacity ~interval_us:o.ts_poll_us
                telemetry.Tel.registry
            in
            let rule =
              Ts.Alert.rule ~fast:o.ts_fast ~slow:o.ts_slow ~name:slow_burn_rule
                (Ts.Alert.Burn_rate
                   {
                     bad = "dsig_verifier_slow_total";
                     total = "dsig_verifier_verifies_total";
                     budget = o.ts_slow_share_budget;
                   })
            in
            let alerter = Ts.Alert.create ~telemetry sampler [ rule ] in
            Ts.Alert.on_transition alerter (fun ~at_us ~rule ev ->
                Dsig.Log.L.info (fun m ->
                    m "deploy node %d: alert %s %s at %.0f us" id rule
                      (Ts.Alert.event_name ev) at_us));
            (sampler, alerter)))
      ts_opts
  in
  let party_options id = Dsig.Options.with_telemetry party_tel.(id) options in
  (* per-node store subdirectories, so n parties on one host never share
     a journal; a restarted deployment over the same store directory
     resumes each node's batch counter *)
  let options_of id =
    let options = party_options id in
    let options =
      match options.Dsig.Options.store with
      | None -> options
      | Some s ->
          Dsig.Options.with_store
            { s with Dsig.Options.dir = Filename.concat s.dir (Printf.sprintf "node-%d" id) }
            options
    in
    let options =
      match tsplane with
      | None -> options
      | Some arr ->
          let sampler, alerter = arr.(id) in
          Dsig.Options.with_sample_hook
            (fun ~now_us ->
              if Ts.Sampler.sample sampler ~now_us then
                ignore (Ts.Alert.step alerter ~now_us))
            options
    in
    match transparency with
    | None -> options
    | Some tr ->
        Dsig.Options.with_translog
          (fun ~signer ~op ~signature -> ignore (Translog.append tr.log ~signer ~op ~signature))
          options
  in
  let net : payload Net.t = Net.create sim ~nodes:n ~latency_us () in
  let ann_bytes = Dsig.Batch.announcement_wire_bytes cfg in
  let counts = { sent = 0; delivered = 0 } in
  let c_dropped = Tel.counter telemetry "dsig_deploy_announcements_rejected_total" in
  let c_control = Tel.counter telemetry "dsig_deploy_control_frames_total" in
  let h_net = Tel.histogram telemetry "dsig_deploy_announce_net_us" in
  (* a pull request names its own reply [dest]; a corrupted or forged
     one may name a node that does not exist *)
  let send_of id ~dest ann =
    if dest >= 0 && dest < n then begin
      counts.sent <- counts.sent + 1;
      Net.send_async net ~src:id ~dst:dest ~bytes:ann_bytes (P_announce (Sim.now sim, ann))
    end
  in
  (* verifier→signer reliability traffic (ACKs and pull-repair requests)
     rides the same modeled network as the announcements it protects *)
  let control_of id c =
    let target = Dsig.Batch.control_target c in
    if target >= 0 && target < n then begin
      Metric.Counter.incr c_control;
      Net.send_async net ~src:id ~dst:target ~bytes:(Dsig.Batch.control_bytes c) (P_control c)
    end
  in
  let all = List.init n Fun.id in
  (* fan-out restriction (fleet scale): a signer announces only to its
     own verifier group instead of the whole deployment *)
  let verifiers_for id =
    match verifiers_of with None -> all | Some f -> (match f id with [] -> all | l -> l)
  in
  let parties =
    Array.init n (fun id ->
        let sk, _ = keys.(id) in
        {
          signer =
            Dsig.Signer.create cfg ~id ~eddsa:sk ~rng:(Rng.split master) ~send:(send_of id)
              ~groups:(groups id) ~options:(options_of id) ~verifiers:(verifiers_for id) ();
          verifier =
            Dsig.Verifier.create cfg ~id ~pki:pkis.(id) ~options:(party_options id)
              ~control:(control_of id) ();
          telemetry = party_tel.(id);
        })
  in
  (* revocation plane: records are enforced where they land — verify the
     authority signature, tighten the node's own directory, purge the
     node's cached batch roots past the boundary *)
  let c_rev_issued = Tel.counter telemetry "dsig_revocation_issued_total" in
  let c_rev_applied = Tel.counter telemetry "dsig_revocation_applied_total" in
  let c_rev_replayed = Tel.counter telemetry "dsig_revocation_replayed_total" in
  let c_rev_rejected = Tel.counter telemetry "dsig_revocation_rejected_total" in
  let h_rev_prop = Tel.histogram telemetry "dsig_revocation_propagate_us" in
  let authority = Option.get (Eddsa.verifying_key auth_pk) in
  let enforce_revocation id encoded =
    match
      Revocation.enforce ~pki:pkis.(id) ~authority
        ~purge:(fun ~signer ~from_batch ->
          ignore (Dsig.Verifier.purge_signer ?from_batch parties.(id).verifier ~signer))
        encoded
    with
    | Revocation.Applied r ->
        Metric.Counter.incr c_rev_applied;
        Metric.Histogram.add h_rev_prop
          (Float.max 0.0 (Tel.now telemetry -. Int64.to_float r.Revocation.rev_issued_us))
    | Revocation.Replayed _ -> Metric.Counter.incr c_rev_replayed
    | Revocation.Rejected _ -> Metric.Counter.incr c_rev_rejected
  in
  let t =
    {
      cfg;
      parties;
      pkis;
      auth_sk;
      telemetry;
      net;
      transparency;
      tsplane;
      c_rev_issued;
      enforce_revocation;
      counts;
    }
  in
  Tel.probe telemetry ~owner:t "dsig_deploy_announcements_sent_total" (fun () -> counts.sent);
  Tel.probe telemetry ~owner:t "dsig_deploy_announcements_delivered_total" (fun () ->
      counts.delivered);
  let c_ckpt_sent = Tel.counter telemetry "dsig_deploy_checkpoints_gossiped_total" in
  let c_ckpt_alarms = Tel.counter telemetry "dsig_deploy_checkpoint_alarms_total" in
  let observe_checkpoint id encoded =
    match transparency with
    | None -> ()
    | Some tr -> (
        match Checkpoint.decode encoded with
        | Error _ -> Metric.Counter.incr c_ckpt_alarms
        | Ok cp -> (
            (* monitors bridge heads with proofs from the log itself —
               in-process here; over Serve in the real-TCP harness *)
            match
              Monitor.observe tr.monitors.(id) cp
                ~fetch_consistency:(fun ~old_size ~new_size ->
                  Translog.prove_consistency tr.log ~old_size ~new_size)
            with
            | Monitor.Alarmed _ -> Metric.Counter.incr c_ckpt_alarms
            | Monitor.Advanced | Monitor.Stale | Monitor.Duplicate -> ()))
  in
  let broadcast_checkpoint encoded =
    match transparency with
    | None -> ()
    | Some tr ->
        tr.gossiped <- tr.gossiped + 1;
        Metric.Counter.incr c_ckpt_sent;
        (* node 0 gossips; its own monitor observes directly *)
        observe_checkpoint 0 encoded;
        for dst = 1 to Array.length t.parties - 1 do
          Net.send_async net ~src:0 ~dst ~bytes:(String.length encoded) (P_checkpoint encoded)
        done
  in
  (* checkpoint gossip pump: sign and broadcast a fresh head whenever
     the log grew since the last one (Translog.checkpoint caches
     otherwise, so an idle log gossips nothing new) *)
  (match transparency with
  | None -> ()
  | Some tr ->
      Sim.spawn sim (fun () ->
          (* start at 0: an empty log has no head worth gossiping *)
          let last = ref 0 in
          while true do
            Sim.sleep translog_poll_us;
            if Translog.size tr.log > !last then begin
              let cp =
                Translog.checkpoint tr.log ~log_id:tr.log_id ~sign:(Eddsa.sign tr.log_sk)
              in
              last := cp.Checkpoint.tree_size;
              broadcast_checkpoint (Checkpoint.encode cp)
            end
          done));
  (* per-party background plane: one queue-refill step per poll
     (Algorithm 1 lines 6-11) *)
  Array.iteri
    (fun id p ->
      let cp = Dsig.Control_plane.of_signer p.signer in
      Sim.spawn sim (fun () ->
          while true do
            ignore (Dsig.Signer.background_step p.signer);
            Sim.sleep bg_poll_us
          done);
      (* re-announcement pump: resend announcements whose ACK timer
         expired; a no-op while every verifier is acknowledging. The
         control plane returns what to send; sending rides the modeled
         network like first transmissions. *)
      Sim.spawn sim (fun () ->
          while true do
            (* the tracker stamps transmissions with the telemetry
               clock, so the poll must ask in the same time base *)
            Dsig.Control_plane.step cp ~now:(Tel.now telemetry)
            |> List.iter (fun (dest, ann) -> send_of id ~dest ann);
            Sim.sleep reannounce_poll_us
          done);
      (* receiver: the verifier's background plane, plus inbound
         reliability traffic for the co-located signer *)
      Sim.spawn sim (fun () ->
          while true do
            match Net.recv net ~node:id with
            | _src, _bytes, P_revoke encoded -> enforce_revocation id encoded
            | _src, _bytes, P_checkpoint encoded -> observe_checkpoint id encoded
            | _src, _bytes, P_control c ->
                Dsig.Control_plane.deliver cp c
                |> List.iter (fun (dest, ann) -> send_of id ~dest ann)
            | _src, _bytes, P_announce (sent_at, ann) ->
                (* virtual time spent on the modeled wire; the
                   in-delivery processing span (announce_delivery) is
                   recorded by the verifier itself, in virtual time too
                   when [telemetry] was created with
                   [~clock:(fun () -> Sim.now sim)] *)
                Metric.Histogram.add h_net (Sim.now sim -. sent_at);
                let ok = Dsig.Verifier.deliver ~sent_us:sent_at p.verifier ann in
                if ok then counts.delivered <- counts.delivered + 1
                else Metric.Counter.incr c_dropped
          done))
    parties;
  (* expose the injection point for split-view experiments: an encoded
     checkpoint pushed here rides the same gossip path as honest ones *)
  (match transparency with
  | Some tr -> tr.broadcast <- broadcast_checkpoint
  | None -> ());
  t

let signer t i = t.parties.(i).signer
let verifier t i = t.parties.(i).verifier
let pki t i = t.pkis.(i)
let telemetry t i = (t.parties.(i) : party).telemetry

(* counters and histograms sum across parties; gauges sum too, so a
   per-party gauge is read from that party's own bundle *)
let snapshot t =
  Array.fold_left
    (fun acc (p : party) -> Registry.Snapshot.merge acc (Tel.snapshot p.telemetry))
    (Tel.snapshot t.telemetry) t.parties

let net t = t.net

(* --- the revocation plane --- *)

let revoke ?from_batch ?(epoch = 0) ?(src = 0) t ~signer () =
  let r =
    {
      Revocation.rev_signer = signer;
      rev_epoch = epoch;
      rev_boundary = (match from_batch with None -> Revocation.Total | Some b -> Revocation.From b);
      rev_issued_us = Int64.of_float (Tel.now t.telemetry);
      rev_authority = src;
    }
  in
  let encoded = Revocation.issue ~authority_sk:t.auth_sk r in
  Metric.Counter.incr t.c_rev_issued;
  (* the issuing node enforces immediately; everyone else learns over
     the modeled wire, like any other control frame *)
  t.enforce_revocation src encoded;
  for dst = 0 to Array.length t.parties - 1 do
    if dst <> src then
      Net.send_async t.net ~src ~dst ~bytes:Revocation.size (P_revoke encoded)
  done;
  encoded

let deliver_revocation t ~node encoded = t.enforce_revocation node encoded

let sampler t i = Option.map (fun arr -> fst arr.(i)) t.tsplane
let alerter t i = Option.map (fun arr -> snd arr.(i)) t.tsplane

let translog t = Option.map (fun tr -> tr.log) t.transparency
let translog_pk t = Option.map (fun tr -> tr.log_pk) t.transparency

(* deliberately exposed: equivocation experiments need to sign a forged
   head with the real log identity (see the split-view tests) *)
let translog_sk t = Option.map (fun tr -> tr.log_sk) t.transparency

let monitor t i =
  Option.map (fun tr -> tr.monitors.(i)) t.transparency

let checkpoints_gossiped t =
  match t.transparency with Some tr -> tr.gossiped | None -> 0

let gossip_checkpoint t encoded =
  match t.transparency with Some tr -> tr.broadcast encoded | None -> ()

let sign t ~signer:i ?hint msg = Dsig.Signer.sign t.parties.(i).signer ?hint msg
let verify t ~verifier:i ~msg signature = Dsig.Verifier.verify t.parties.(i).verifier ~msg signature
let announcements_sent t = t.counts.sent
let announcements_delivered t = t.counts.delivered

let close t =
  (* close every node's key-state journal with a clean-shutdown marker *)
  Array.iter (fun p -> Dsig.Signer.close p.signer) t.parties;
  (* seal the transparency log last: the sink has run for every
     signature the loop above flushed out *)
  match t.transparency with Some tr -> Translog.close tr.log | None -> ()

let flip_random_bit rng s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Rng.int rng (Bytes.length b) in
    let bit = Rng.int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.unsafe_to_string b
  end

let corrupting_mutate ~seed =
  let rng = Rng.create seed in
  fun payload ->
    match payload with
    | P_announce (sent_at, ann) -> (
        match
          Dsig.Batch.decode_announcement
            (flip_random_bit rng (Dsig.Batch.encode_announcement ann))
        with
        | Ok ann' -> Some (P_announce (sent_at, ann'))
        | Error _ -> None)
    | P_control c -> (
        match Dsig.Batch.decode_control (flip_random_bit rng (Dsig.Batch.encode_control c)) with
        | Ok c' -> Some (P_control c')
        | Error _ -> None)
    | P_checkpoint encoded ->
        (* a corrupted checkpoint either fails to decode (dropped by the
           receiver) or fails its signature at the monitor *)
        Some (P_checkpoint (flip_random_bit rng encoded))
    | P_revoke encoded -> (
        (* same discipline: undecodable frames model a length/tag-check
           drop, decodable ones must fail the authority signature *)
        let m = flip_random_bit rng encoded in
        match Revocation.decode m with Ok _ -> Some (P_revoke m) | Error _ -> None)
