(* dsig — command-line front end to the DSig signature system.

   Signatures produced here are self-standing (§4.2): `verify` needs
   only the signer's Ed25519 public key, exercising the slow path of
   Algorithm 2; inside an application deployment the background plane
   would make verification fast. *)

open Cmdliner
module BU = Dsig_util.Bytesutil

let config_of ~d ~batch = Dsig.Config.make ~batch_size:batch ~queue_threshold:batch (Dsig.Config.wots ~d)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- keygen --- *)

let keygen out =
  let rng = Dsig_util.Rng.system () in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  write_file out (BU.to_hex (Dsig_ed25519.Eddsa.seed_of_secret sk) ^ "\n");
  Printf.printf "secret seed written to %s\n" out;
  Printf.printf "public key: %s\n" (BU.to_hex pk);
  0

let out_arg =
  Arg.(value & opt string "dsig.key" & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Secret-key output file.")

let keygen_cmd =
  Cmd.v
    (Cmd.info "keygen" ~doc:"Generate an Ed25519 identity for DSig signing.")
    Term.(const keygen $ out_arg)

(* --- common args --- *)

let key_arg =
  Arg.(required & opt (some string) None & info [ "k"; "key" ] ~docv:"FILE" ~doc:"Secret-key file from $(b,keygen).")

let msg_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MESSAGE" ~doc:"Message string, or @FILE to read a file.")

(* the library's own parameter check decides, so an invalid depth is a
   usage error rather than an uncaught exception *)
let depth =
  let valid d =
    match Dsig.Config.wots ~d with _ -> true | exception Invalid_argument _ -> false
  in
  let parse s =
    match int_of_string_opt s with
    | Some d when valid d -> Ok d
    | _ -> Error (`Msg (Printf.sprintf "invalid W-OTS+ depth %S: expected a power of two >= 2" s))
  in
  Arg.conv ~docv:"D" (parse, Format.pp_print_int)

let d_arg = Arg.(value & opt depth 4 & info [ "d" ] ~doc:"W-OTS+ depth (power of two >= 2).")
let batch_arg = Arg.(value & opt int 16 & info [ "batch" ] ~doc:"EdDSA batch size (power of two).")

let load_msg m = if String.length m > 0 && m.[0] = '@' then read_file (String.sub m 1 (String.length m - 1)) else m

(* --- sign --- *)

let sign key_file msg_spec sig_out d batch =
  let seed = BU.of_hex (String.trim (read_file key_file)) in
  let sk = Dsig_ed25519.Eddsa.secret_of_seed seed in
  let cfg = config_of ~d ~batch in
  let rng = Dsig_util.Rng.system () in
  let signer = Dsig.Signer.create cfg ~id:0 ~eddsa:sk ~rng ~verifiers:[ 0 ] () in
  let msg = load_msg msg_spec in
  let signature = Dsig.Signer.sign signer msg in
  write_file sig_out signature;
  Printf.printf "signed %d-byte message; %d-byte DSig signature written to %s\n"
    (String.length msg) (String.length signature) sig_out;
  Printf.printf "verify with public key: %s\n" (BU.to_hex (Dsig_ed25519.Eddsa.public_key sk));
  0

let sig_out_arg =
  Arg.(value & opt string "message.dsig" & info [ "s"; "signature" ] ~docv:"FILE" ~doc:"Signature output file.")

let sign_cmd =
  Cmd.v
    (Cmd.info "sign" ~doc:"Sign a message with DSig (W-OTS+ over Haraka + batched Ed25519).")
    Term.(const sign $ key_arg $ msg_arg $ sig_out_arg $ d_arg $ batch_arg)

(* --- verify --- *)

let verify pk_hex msg_spec sig_file d batch =
  let cfg = config_of ~d ~batch in
  let pki = Dsig.Pki.create () in
  Dsig.Pki.bind pki ~id:0 ~epoch:0 (BU.of_hex pk_hex);
  let verifier = Dsig.Verifier.create cfg ~id:1 ~pki () in
  let msg = load_msg msg_spec in
  let signature = read_file sig_file in
  let verdict = Dsig.Verifier.check verifier ~msg signature in
  if Dsig.Verifier.accepted verdict then begin
    Printf.printf "OK (%s): signature valid for the %d-byte message\n"
      (Dsig.Verifier.verdict_name verdict) (String.length msg);
    0
  end
  else begin
    Printf.printf "FAILED: %s\n" (Dsig.Verifier.verdict_name verdict);
    1
  end

let pk_arg =
  Arg.(required & opt (some string) None & info [ "p"; "public-key" ] ~docv:"HEX" ~doc:"Signer's Ed25519 public key (hex).")

let sig_in_arg =
  Arg.(value & opt string "message.dsig" & info [ "s"; "signature" ] ~docv:"FILE" ~doc:"Signature file.")

let verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify a DSig signature (self-standing slow path).")
    Term.(const verify $ pk_arg $ msg_arg $ sig_in_arg $ d_arg $ batch_arg)

(* --- inspect --- *)

let inspect sig_file d batch =
  let cfg = config_of ~d ~batch in
  let signature = read_file sig_file in
  (match Dsig.Wire.decode cfg signature with
  | Error e -> Printf.printf "undecodable: %s\n" e
  | Ok w ->
      Printf.printf "scheme:      %s\n" (Dsig.Config.describe cfg);
      Printf.printf "total bytes: %d\n" (String.length signature);
      Printf.printf "signer id:   %d\n" w.Dsig.Wire.signer_id;
      Printf.printf "batch id:    %Ld\n" w.Dsig.Wire.batch_id;
      Printf.printf "key index:   %d\n" (Dsig.Wire.key_index w);
      Printf.printf "public seed: %s\n" (BU.to_hex w.Dsig.Wire.public_seed);
      (match w.Dsig.Wire.body with
      | Dsig.Wire.Wots_body s ->
          let n =
            match cfg.Dsig.Config.hbss with
            | Dsig.Config.Wots p -> p.Dsig_hbss.Params.Wots.n
            | _ -> assert false (* decode checked the scheme tag *)
          in
          Printf.printf "W-OTS+ elements: %d x %d bytes, nonce %s\n"
            (String.length s.Dsig_hbss.Wots.elements / n)
            n
            (BU.to_hex s.Dsig_hbss.Wots.nonce)
      | Dsig.Wire.Hors_fact_body { hsig; complement } ->
          Printf.printf "HORS revealed: %d, complement: %d\n"
            (Array.length hsig.Dsig_hbss.Hors.revealed)
            (Array.length complement)
      | Dsig.Wire.Hors_merk_body { hsig; roots; proofs } ->
          Printf.printf "HORS revealed: %d, roots: %d, proofs: %d\n"
            (Array.length hsig.Dsig_hbss.Hors.revealed)
            (Array.length roots) (Array.length proofs)));
  0

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Decode and print the structure of a DSig signature.")
    Term.(const inspect $ sig_in_arg $ d_arg $ batch_arg)

(* --- audit-log commands --- *)

let log_arg =
  Arg.(value & opt string "dsig.log" & info [ "l"; "log" ] ~docv:"FILE" ~doc:"Audit-log file.")

let client_arg =
  Arg.(value & opt int 0 & info [ "c"; "client" ] ~docv:"ID" ~doc:"Client (signer) id recorded in the log.")

let log_sign key_file msg_spec log_file client d batch =
  let seed = BU.of_hex (String.trim (read_file key_file)) in
  let sk = Dsig_ed25519.Eddsa.secret_of_seed seed in
  let cfg = config_of ~d ~batch in
  let rng = Dsig_util.Rng.system () in
  let signer = Dsig.Signer.create cfg ~id:client ~eddsa:sk ~rng ~verifiers:[ client ] () in
  let op = load_msg msg_spec in
  let signature = Dsig.Signer.sign signer op in
  let w = Dsig_audit.Logfile.open_writer log_file in
  Fun.protect
    ~finally:(fun () -> Dsig_audit.Logfile.close_writer w)
    (fun () -> Dsig_audit.Logfile.append ~sync:true w ~client ~op ~signature);
  Printf.printf "appended signed entry (%d B op, %d B signature) to %s\n" (String.length op)
    (String.length signature) log_file;
  Printf.printf "audit with public key: %s\n" (BU.to_hex (Dsig_ed25519.Eddsa.public_key sk));
  0

let log_sign_cmd =
  Cmd.v
    (Cmd.info "log-sign" ~doc:"Sign an operation and append it to a durable audit log.")
    Term.(const log_sign $ key_arg $ msg_arg $ log_arg $ client_arg $ d_arg $ batch_arg)

let signer_pks_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "signer" ] ~docv:"ID=PKHEX" ~doc:"Client id to Ed25519 public key binding (repeatable).")

let log_audit log_file signer_pks d batch =
  let cfg = config_of ~d ~batch in
  let pki = Dsig.Pki.create () in
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | Some i ->
          let id = int_of_string (String.sub spec 0 i) in
          let pk = BU.of_hex (String.sub spec (i + 1) (String.length spec - i - 1)) in
          Dsig.Pki.bind pki ~id ~epoch:0 pk
      | None -> failwith ("bad --signer spec: " ^ spec))
    signer_pks;
  match Dsig_audit.Logfile.load log_file with
  | Error e ->
      Printf.printf "cannot load %s: %s\n" log_file e;
      1
  | Ok log ->
      let verifier = Dsig.Verifier.create cfg ~id:(-1) ~pki () in
      let (valid, invalid), bad =
        Dsig_audit.Audit.audit log ~verify:(fun ~client:_ ~msg s ->
            Dsig.Verifier.verify verifier ~msg s)
      in
      Printf.printf "%d entries: %d valid, %d invalid\n" (Dsig_audit.Audit.length log) valid
        invalid;
      List.iter
        (fun e ->
          Printf.printf "  INVALID entry %d (client %d, %d B op)\n" e.Dsig_audit.Audit.index
            e.Dsig_audit.Audit.client
            (String.length e.Dsig_audit.Audit.op))
        bad;
      if invalid = 0 then 0 else 1

let log_audit_cmd =
  Cmd.v
    (Cmd.info "log-audit" ~doc:"Third-party audit of a durable signed log.")
    Term.(const log_audit $ log_arg $ signer_pks_arg $ d_arg $ batch_arg)

(* --- stats --- *)

(* Run a self-contained sign/verify workload on a fresh telemetry
   bundle and print the resulting snapshot. Demonstrates the full
   metrics plane: the signer's background refills, the verifier's
   fast/slow path split (announcements are delivered between batches,
   so early signatures verify slow and later ones fast). *)
let stats ops fmt d batch =
  let module Tel = Dsig_telemetry.Telemetry in
  let tel = Tel.create () in
  let cfg = config_of ~d ~batch in
  let rng = Dsig_util.Rng.create 11L in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  let pki = Dsig.Pki.create () in
  Dsig.Pki.bind pki ~id:0 ~epoch:0 pk;
  let signer = Dsig.Signer.create cfg ~id:0 ~eddsa:sk ~rng
    ~options:(Dsig.Options.default |> Dsig.Options.with_telemetry tel)
    ~verifiers:[ 1 ] () in
  let verifier = Dsig.Verifier.create cfg ~id:1 ~pki
    ~options:(Dsig.Options.default |> Dsig.Options.with_telemetry tel) () in
  Dsig.Signer.background_fill signer;
  for i = 1 to ops do
    List.iter
      (fun (_, a) -> ignore (Dsig.Verifier.deliver verifier a))
      (Dsig.Signer.drain_outbox signer);
    let msg = Printf.sprintf "stats workload #%d" i in
    let signature = Dsig.Signer.sign signer msg in
    if not (Dsig.Verifier.verify verifier ~msg signature) then
      failwith "stats workload: signature unexpectedly rejected";
    if i mod (batch / 2) = 0 then Dsig.Signer.background_fill signer
  done;
  let snap = Tel.snapshot tel in
  (match fmt with
  | `Human -> print_string (Dsig_telemetry.Export.summary snap)
  | `Json -> print_endline (Dsig_telemetry.Export.json snap)
  | `Prometheus -> print_string (Dsig_telemetry.Export.prometheus snap));
  0

let ops_arg =
  Arg.(value & opt int 200 & info [ "n"; "ops" ] ~docv:"N" ~doc:"Number of sign+verify operations to run.")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("human", `Human); ("json", `Json); ("prometheus", `Prometheus) ]) `Human
    & info [ "f"; "format" ] ~docv:"FORMAT" ~doc:"Output format: $(b,human), $(b,json) or $(b,prometheus).")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Run a sign/verify workload and print its telemetry snapshot.")
    Term.(const stats $ ops_arg $ format_arg $ d_arg $ batch_arg)

(* --- top --- *)

(* Poll a scrape endpoint's /planes route and render a refreshing
   per-plane latency table. Without --port, runs a self-contained demo:
   a signer/verifier pair with lifecycle tracing enabled, published
   through a local scrape server that the watcher then polls — the same
   path an external Prometheus or `dsig top` against a real service
   would take. *)
let top port interval count d batch =
  let module Tel = Dsig_telemetry.Telemetry in
  let module Lifecycle = Dsig_telemetry.Lifecycle in
  let module Scrape = Dsig_tcpnet.Scrape in
  let cleanup, port =
    match port with
    | Some p -> ((fun () -> ()), p)
    | None ->
        let tel = Tel.create () in
        Lifecycle.enable tel.Tel.lifecycle;
        let cfg = config_of ~d ~batch in
        let rng = Dsig_util.Rng.create 17L in
        let sk, pk = Dsig_ed25519.Eddsa.generate rng in
        let pki = Dsig.Pki.create () in
        Dsig.Pki.bind pki ~id:0 ~epoch:0 pk;
        let signer =
          Dsig.Signer.create cfg ~id:0 ~eddsa:sk ~rng
    ~options:(Dsig.Options.default |> Dsig.Options.with_telemetry tel)
    ~verifiers:[ 1 ] ()
        in
        let verifier = Dsig.Verifier.create cfg ~id:1 ~pki
    ~options:(Dsig.Options.default |> Dsig.Options.with_telemetry tel) () in
        let stop = ref false in
        let worker =
          Thread.create
            (fun () ->
              let i = ref 0 in
              while not !stop do
                incr i;
                Dsig.Signer.background_fill signer;
                List.iter
                  (fun (_, a) -> ignore (Dsig.Verifier.deliver verifier a))
                  (Dsig.Signer.drain_outbox signer);
                let msg = Printf.sprintf "top demo #%d" !i in
                let signature, ctx = Dsig.Signer.sign_ctx signer msg in
                ignore (Dsig.Verifier.check ~ctx verifier ~msg signature);
                Thread.delay 0.002
              done)
            ()
        in
        let srv = Scrape.start ~telemetry:tel ~port:0 () in
        Printf.printf "demo scrape server on 127.0.0.1:%d (/metrics /metrics.json /trace /planes)\n%!"
          (Scrape.port srv);
        ( (fun () ->
            stop := true;
            (try Thread.join worker with _ -> ());
            Scrape.stop srv),
          Scrape.port srv )
  in
  let render ~tick body =
    if tick > 1 then print_string "\027[H\027[2J";
    Printf.printf "dsig top — 127.0.0.1:%d/planes — refresh %d\n\n" port tick;
    let heads = ref [] and planes = ref [] in
    List.iter
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ k; v ] -> heads := (k, v) :: !heads
        | [ name; n; p50; p99; p999 ] -> planes := (name, n, p50, p99, p999) :: !planes
        | _ -> ())
      (String.split_on_char '\n' body);
    List.iter (fun (k, v) -> Printf.printf "%-10s %s\n" k v) (List.rev !heads);
    Printf.printf "\n%-14s %10s %12s %12s %12s\n" "plane" "count" "p50 (us)" "p99 (us)" "p99.9 (us)";
    List.iter
      (fun (name, n, p50, p99, p999) ->
        Printf.printf "%-14s %10s %12s %12s %12s\n" name n p50 p99 p999)
      (List.rev !planes);
    Printf.printf "\n%!"
  in
  let rc = ref 0 in
  let tick = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr tick;
    (match Scrape.fetch ~port ~path:"/planes" with
    | Ok body -> render ~tick:!tick body
    | Error e ->
        Printf.printf "fetch 127.0.0.1:%d/planes failed: %s\n%!" port e;
        rc := 1;
        continue_ := false);
    if count > 0 && !tick >= count then continue_ := false;
    if !continue_ then Thread.delay interval
  done;
  cleanup ();
  !rc

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"Scrape-endpoint port on 127.0.0.1 to poll. Omit to run a self-contained demo.")

let interval_arg =
  Arg.(value & opt float 1.0 & info [ "i"; "interval" ] ~docv:"SECONDS" ~doc:"Refresh interval.")

let count_arg =
  Arg.(
    value & opt int 5
    & info [ "c"; "count" ] ~docv:"N" ~doc:"Number of refreshes; 0 runs until interrupted.")

let top_cmd =
  Cmd.v
    (Cmd.info "top" ~doc:"Watch per-plane signature lifecycle latencies from a scrape endpoint.")
    Term.(const top $ port_arg $ interval_arg $ count_arg $ d_arg $ batch_arg)

(* --- timeline: sparkline history of sampled metric series --- *)

(* Render the ring-buffered series behind a /timeseries route (or a
   dumped JSON body) as one sparkline per metric. Counter series show
   per-sample increments (the interesting signal); gauges show raw
   values. *)
let spark_cells = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                     "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  match values with
  | [] -> ""
  | _ ->
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      let cell v =
        if hi <= lo then spark_cells.(0)
        else
          let level = int_of_float ((v -. lo) /. (hi -. lo) *. 7.0 +. 0.5) in
          spark_cells.(max 0 (min 7 level))
      in
      String.concat "" (List.map cell values)

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let timeline port file metric width interval count =
  let module Ts = Dsig_timeseries in
  let module Scrape = Dsig_tcpnet.Scrape in
  let render ~tick ~source body =
    match Ts.Sampler.of_json body with
    | Error e ->
        Printf.printf "timeline: %s does not parse as a timeseries dump: %s\n%!" source e;
        1
    | Ok rows ->
        let rows =
          List.filter (fun (name, _, _) -> string_contains name metric) rows
        in
        if tick > 1 then print_string "\027[H\027[2J";
        Printf.printf "dsig timeline — %s — %d series%s\n\n" source (List.length rows)
          (if metric = "" then "" else Printf.sprintf " matching %S" metric);
        let name_w =
          List.fold_left (fun acc (n, _, _) -> max acc (String.length n)) 6 rows
        in
        List.iter
          (fun (name, kind, points) ->
            let values = List.map snd points in
            (* counters plot per-sample increments, clamped so a
               restart's reset never draws a negative spike *)
            let values =
              match kind with
              | Ts.Series.Gauge -> values
              | Ts.Series.Counter -> (
                  match values with
                  | [] -> []
                  | first :: _ ->
                      List.rev
                        (snd
                           (List.fold_left
                              (fun (prev, acc) v -> (v, Float.max 0.0 (v -. prev) :: acc))
                              (first, []) values)))
            in
            let tail =
              let n = List.length values in
              if n <= width then values
              else List.filteri (fun i _ -> i >= n - width) values
            in
            let last = match List.rev tail with v :: _ -> v | [] -> 0.0 in
            Printf.printf "%-*s %-7s %s %.6g\n" name_w name
              (Ts.Series.kind_to_string kind) (sparkline tail) last)
          rows;
        Printf.printf "\n%!";
        0
  in
  match (port, file) with
  | None, Some f ->
      let ic = open_in_bin f in
      let body = really_input_string ic (in_channel_length ic) in
      close_in ic;
      render ~tick:1 ~source:f body
  | _ ->
      (* like `top`: without --port, run a self-contained demo — a
         signer/verifier pair whose registry a sampler folds every
         tick, published through a local scrape server the watcher
         then polls over real HTTP *)
      let cleanup, p =
        match port with
        | Some p -> ((fun () -> ()), p)
        | None ->
            let module Tel = Dsig_telemetry.Telemetry in
            let tel = Tel.create () in
            let cfg = config_of ~d:4 ~batch:16 in
            let rng = Dsig_util.Rng.create 17L in
            let sk, pk = Dsig_ed25519.Eddsa.generate rng in
            let pki = Dsig.Pki.create () in
            Dsig.Pki.bind pki ~id:0 ~epoch:0 pk;
            let options = Dsig.Options.default |> Dsig.Options.with_telemetry tel in
            let signer = Dsig.Signer.create cfg ~id:0 ~eddsa:sk ~rng ~options ~verifiers:[ 1 ] () in
            let verifier = Dsig.Verifier.create cfg ~id:1 ~pki ~options () in
            let sampler = Ts.Sampler.create ~interval_us:10_000.0 tel.Tel.registry in
            let alerts = Ts.Alert.create ~telemetry:tel sampler [] in
            (* one tick before the first fetch, so the first frame
               already lists the series *)
            ignore (Ts.Sampler.sample sampler ~now_us:(Tel.now tel));
            let stop = ref false in
            let worker =
              Thread.create
                (fun () ->
                  let i = ref 0 in
                  while not !stop do
                    incr i;
                    Dsig.Signer.background_fill signer;
                    List.iter
                      (fun (_, a) -> ignore (Dsig.Verifier.deliver verifier a))
                      (Dsig.Signer.drain_outbox signer);
                    let msg = Printf.sprintf "timeline demo #%d" !i in
                    let signature = Dsig.Signer.sign signer msg in
                    ignore (Dsig.Verifier.verify verifier ~msg signature);
                    if Ts.Sampler.sample sampler ~now_us:(Tel.now tel) then
                      ignore (Ts.Alert.step alerts ~now_us:(Tel.now tel));
                    Thread.delay 0.002
                  done)
                ()
            in
            let srv = Scrape.start ~telemetry:tel ~timeseries:sampler ~alerts ~port:0 () in
            Printf.printf "demo scrape server on 127.0.0.1:%d (/timeseries /alerts)\n%!"
              (Scrape.port srv);
            ( (fun () ->
                stop := true;
                (try Thread.join worker with _ -> ());
                Scrape.stop srv),
              Scrape.port srv )
      in
      let rc = ref 0 in
      let tick = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        incr tick;
        (match Scrape.fetch ~port:p ~path:"/timeseries" with
        | Ok body -> rc := render ~tick:!tick ~source:(Printf.sprintf "127.0.0.1:%d/timeseries" p) body
        | Error e ->
            Printf.printf "fetch 127.0.0.1:%d/timeseries failed: %s\n%!" p e;
            rc := 1;
            continue_ := false);
        if count > 0 && !tick >= count then continue_ := false;
        if !continue_ then Thread.delay interval
      done;
      cleanup ();
      !rc

let timeline_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Render a dumped /timeseries JSON body instead of polling.")

let timeline_metric_arg =
  Arg.(
    value & opt string ""
    & info [ "m"; "metric" ] ~docv:"SUBSTRING" ~doc:"Only series whose name contains this.")

let timeline_width_arg =
  Arg.(value & opt int 60 & info [ "w"; "width" ] ~docv:"POINTS" ~doc:"Sparkline width in points.")

let timeline_cmd =
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Render sparkline metric history from a live /timeseries scrape route or a dumped \
          JSON body.")
    Term.(
      const timeline $ port_arg $ timeline_file_arg $ timeline_metric_arg $ timeline_width_arg
      $ interval_arg $ count_arg)

(* --- monitor: independent split-view watching of a transparency log --- *)

let monitor endpoints pk_hex log_id interval count =
  let module Serve = Dsig_translog.Serve in
  let module Monitor = Dsig_translog.Monitor in
  let module Checkpoint = Dsig_translog.Checkpoint in
  if endpoints = [] then begin
    prerr_endline "monitor: at least one --endpoint is required";
    1
  end
  else begin
    let pk = Dsig_util.Bytesutil.of_hex pk_hex in
    let mon =
      Monitor.create ~log_id
        ~verify:(fun ~msg ~signature -> Dsig_ed25519.Eddsa.verify pk msg signature)
        ()
    in
    let alarmed = ref false in
    let tick = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      incr tick;
      List.iter
        (fun port ->
          let source = Printf.sprintf "127.0.0.1:%d" port in
          match Serve.fetch_checkpoint ~port () with
          | Error e -> Printf.printf "%s: unreachable: %s\n%!" source e
          | Ok cp -> (
              let fetch_consistency ~old_size ~new_size =
                Serve.fetch_consistency ~port ~old_size ~new_size ()
              in
              match Monitor.observe mon cp ~fetch_consistency with
              | Monitor.Advanced ->
                  Printf.printf "%s: size %d root %s — head advanced\n%!" source
                    cp.Checkpoint.tree_size
                    (Dsig_util.Bytesutil.to_hex cp.Checkpoint.root)
              | Monitor.Stale -> Printf.printf "%s: size %d — stale but consistent\n%!" source cp.Checkpoint.tree_size
              | Monitor.Duplicate -> Printf.printf "%s: size %d — unchanged\n%!" source cp.Checkpoint.tree_size
              | Monitor.Alarmed a ->
                  Printf.printf "%s: ALARM: %s\n%!" source (Monitor.alarm_to_string a);
                  alarmed := true))
        endpoints;
      if count > 0 && !tick >= count then continue_ := false;
      if !alarmed then continue_ := false;
      if !continue_ then Thread.delay interval
    done;
    (match Monitor.head mon with
    | Some h ->
        Printf.printf "monitor head: size %d root %s (%d alarms)\n%!" h.Checkpoint.tree_size
          (Dsig_util.Bytesutil.to_hex h.Checkpoint.root)
          (List.length (Monitor.alarms mon))
    | None -> print_endline "monitor: no checkpoint ever accepted");
    if !alarmed then 2 else 0
  end

let endpoint_arg =
  Arg.(
    value & opt_all int []
    & info [ "e"; "endpoint" ] ~docv:"PORT"
        ~doc:
          "Transparency-log proof endpoint on 127.0.0.1 (repeatable — poll several vantage \
           points to catch split views).")

let log_pk_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "public-key" ] ~docv:"HEX" ~doc:"The log identity's Ed25519 public key (hex).")

let log_id_arg =
  Arg.(value & opt int 0 & info [ "log-id" ] ~doc:"Expected log id in checkpoints.")

let monitor_cmd =
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Poll transparency-log checkpoints from one or more endpoints, verify consistency \
          proofs between successive heads, and exit 2 on any split-view or consistency alarm.")
    Term.(const monitor $ endpoint_arg $ log_pk_arg $ log_id_arg $ interval_arg $ count_arg)

(* --- analyze --- *)

let analyze () =
  Printf.printf "%-14s %12s %10s %14s %10s\n" "config" "crit hashes" "sig B" "keygen hashes" "bg B/sig";
  List.iter
    (fun r ->
      Printf.printf "%-14s %12.0f %10d %14d %10.1f\n" r.Dsig.Analysis.label
        r.Dsig.Analysis.critical_hashes r.Dsig.Analysis.signature_bytes
        r.Dsig.Analysis.keygen_hashes r.Dsig.Analysis.bg_bytes_per_sig)
    (Dsig.Analysis.table2 ());
  0

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Print the analytical configuration comparison (paper Table 2).")
    Term.(const analyze $ const ())

(* --- durable key-store commands --- *)

module Keystate = Dsig_store.Keystate

let store_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Key-store directory (a signer's $(b,Options.with_store) target).")

let print_scan (s : Keystate.scan) =
  (match s.Keystate.scan_snapshot with
  | None -> print_endline "snapshot: none"
  | Some snap ->
      Printf.printf "snapshot: seq=%Ld next_batch_id=%Ld fingerprint=%s\n"
        snap.Dsig_store.Snapshot.seq snap.Dsig_store.Snapshot.next_batch_id
        (match snap.Dsig_store.Snapshot.fingerprint with "" -> "-" | fp -> fp));
  List.iter
    (fun (seq, (r : Dsig_store.Wal.recovery)) ->
      Printf.printf "segment wal-%016Ld: %d records, %d/%d bytes%s\n" seq
        (List.length r.Dsig_store.Wal.records)
        r.Dsig_store.Wal.valid_bytes r.Dsig_store.Wal.total_bytes
        (match r.Dsig_store.Wal.torn with
        | None -> ""
        | Some why -> Printf.sprintf " (torn tail: %s)" why))
    s.Keystate.scan_segments;
  Printf.printf "next_batch_id: %Ld\n" s.Keystate.scan_next_batch_id;
  Printf.printf "epoch: %d\n" s.Keystate.scan_epoch;
  (match s.Keystate.scan_pending_rotation with
  | None -> ()
  | Some (e, b) -> Printf.printf "pending rotation: epoch %d at batch %Ld (unconfirmed)\n" e b);
  List.iter
    (fun (e, b) -> Printf.printf "rotation: epoch %d confirmed at batch %Ld\n" e b)
    s.Keystate.scan_rotations;
  Printf.printf "clean shutdown: %b\n" s.Keystate.scan_clean

let store_inspect dir =
  match Keystate.scan ~dir with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok s ->
      print_scan s;
      0

let store_verify dir =
  match Keystate.scan ~dir with
  | Error e ->
      Printf.eprintf "corrupt: %s\n" e;
      2
  | Ok s when s.Keystate.scan_torn ->
      print_scan s;
      print_endline "status: TORN (a crash cut the journal tail; run `dsig store recover`)";
      1
  | Ok s ->
      print_scan s;
      print_endline (if s.Keystate.scan_clean then "status: OK (clean)" else "status: OK (crashed, tail intact)");
      0

let store_recover dir =
  match Keystate.open_ (Keystate.config dir) with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok (t, report) ->
      Printf.printf "recovered: snapshot=%b segments=%d records=%d clean=%b\n"
        report.Keystate.had_snapshot report.Keystate.segments_replayed
        report.Keystate.records_replayed report.Keystate.clean;
      if report.Keystate.torn_segments > 0 then
        Printf.printf "torn tails discarded: %d segment(s), %d byte(s)\n"
          report.Keystate.torn_segments report.Keystate.torn_bytes;
      Option.iter
        (fun (e, b) -> Printf.printf "rolled back: rotation to epoch %d at batch %Ld\n" e b)
        report.Keystate.rotation_rolled_back;
      Printf.printf "next_batch_id: %Ld\n" report.Keystate.next_batch_id;
      Keystate.close t;
      print_endline "store checkpointed and closed clean";
      0

let store_cmd =
  Cmd.group
    (Cmd.info "store" ~doc:"Inspect and repair a signer's durable key-state store (DESIGN.md §10).")
    [
      Cmd.v
        (Cmd.info "inspect" ~doc:"Print the snapshot, WAL segments and batch counter, read-only.")
        Term.(const store_inspect $ store_dir_arg);
      Cmd.v
        (Cmd.info "verify"
           ~doc:
             "Read-only integrity check: exit 0 if the store is intact, 1 on a torn journal \
              tail, 2 on corruption.")
        Term.(const store_verify $ store_dir_arg);
      Cmd.v
        (Cmd.info "recover"
           ~doc:
             "Run crash recovery now: discard torn tails, roll back an unconfirmed rotation, \
              fold everything into a fresh snapshot and close clean.")
        Term.(const store_recover $ store_dir_arg);
    ]
(* --- loadctl: watch an admission controller's live state --- *)

(* Poll a scrape endpoint's /loadctl route (Dsig_loadctl.Admission
   state: adapted rate, congested flag, pressure byte, per-class
   offered/shed counts) and print one JSON line per refresh. Without
   --port, run a self-contained demo: an admission controller squeezed
   well past its configured rate, published through a local scrape
   server the watcher then polls over real HTTP. *)
let loadctl_watch port interval count =
  let module Scrape = Dsig_tcpnet.Scrape in
  let module Admission = Dsig_loadctl.Admission in
  let module Tel = Dsig_telemetry.Telemetry in
  let cleanup, p =
    match port with
    | Some p -> ((fun () -> ()), p)
    | None ->
        let tel = Tel.create () in
        let params =
          {
            Admission.default_params with
            Admission.initial_rate_per_sec = 500.0;
            min_rate_per_sec = 50.0;
          }
        in
        let a = Admission.create ~params ~telemetry:tel () in
        let stop = ref false in
        let worker =
          Thread.create
            (fun () ->
              while not !stop do
                let now = Tel.now tel in
                (* ~2000 verify offers/sec against a 500/sec bucket,
                   with sojourns pinned above the CoDel target: the
                   controller goes congested, AIMD bites, repair sheds *)
                for _ = 1 to 10 do
                  ignore (Admission.admit a ~now_us:now Admission.Verify)
                done;
                ignore (Admission.admit a ~now_us:now Admission.Repair);
                Admission.observe a ~now_us:now
                  ~sojourn_us:(2.0 *. params.Admission.target_sojourn_us);
                Thread.delay 0.005
              done)
            ()
        in
        let srv = Scrape.start ~telemetry:tel ~loadctl:a ~port:0 () in
        Printf.printf "demo scrape server on 127.0.0.1:%d (/loadctl)\n%!" (Scrape.port srv);
        ( (fun () ->
            stop := true;
            (try Thread.join worker with _ -> ());
            Scrape.stop srv),
          Scrape.port srv )
  in
  let rc = ref 0 in
  let tick = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr tick;
    (match Scrape.fetch ~port:p ~path:"/loadctl" with
    | Ok body -> Printf.printf "%s\n%!" body
    | Error e ->
        Printf.printf "fetch 127.0.0.1:%d/loadctl failed: %s\n%!" p e;
        rc := 1;
        continue_ := false);
    if count > 0 && !tick >= count then continue_ := false;
    if !continue_ then Thread.delay interval
  done;
  cleanup ();
  !rc

let loadctl_cmd =
  Cmd.v
    (Cmd.info "loadctl"
       ~doc:
         "Watch a verifier's admission-control state (adapted rate, congestion, pressure, \
          per-class shed counts) from a scrape endpoint's /loadctl route.")
    Term.(const loadctl_watch $ port_arg $ interval_arg $ count_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "dsig" ~version:"1.0.0"
       ~doc:"DSig: microsecond-scale hybrid digital signatures (OSDI 2024 reproduction).")
    [
      keygen_cmd;
      sign_cmd;
      verify_cmd;
      inspect_cmd;
      analyze_cmd;
      stats_cmd;
      top_cmd;
      timeline_cmd;
      loadctl_cmd;
      monitor_cmd;
      log_sign_cmd;
      log_audit_cmd;
      store_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
