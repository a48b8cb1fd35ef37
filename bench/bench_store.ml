(* Signing overhead of the durable key-state store (DESIGN.md §10): the
   same foreground signing loop run without a store and with a Keystate
   journal. The journal syncs one record per sealed batch, on the
   background plane, and the foreground sign writes nothing, so the two
   modes should sign at the same cost. Only the signs are timed: the
   background refills (and the seals they journal) run between timed
   chunks of 32 signs, each chunk served from a queue kept at S. *)

open Dsig
module Tel = Dsig_telemetry.Telemetry
module Snapshot = Dsig_telemetry.Registry.Snapshot

let counter snap name =
  match Snapshot.find snap name with Some (Snapshot.Counter n) -> n | _ -> 0

(* mkdtemp without unix: claim a unique temp name, swap file for dir *)
let fresh_dir () =
  let f = Filename.temp_file "dsig-bench-store" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

type outcome = { us_per_op : float; appends : int; fsyncs : int }

let run_mode ~ops mk_options =
  let tel = Tel.default in
  let before = Tel.snapshot tel in
  let cfg = Config.make ~batch_size:64 ~queue_threshold:128 (Config.wots ~d:4) in
  let rng = Dsig_util.Rng.create 11L in
  let sk, _ = Dsig_ed25519.Eddsa.generate rng in
  let options = mk_options (Options.default |> Options.with_telemetry tel) in
  let signer = Signer.create cfg ~id:0 ~eddsa:sk ~rng ~options ~verifiers:[ 1 ] () in
  let signed = ref 0 and dt = ref 0.0 in
  while !signed < ops do
    Signer.background_fill signer;
    ignore (Signer.drain_outbox signer);
    let chunk = Stdlib.min 32 (ops - !signed) in
    let t0 = Tel.now tel in
    for _ = 1 to chunk do
      ignore (Signer.sign signer "12345678")
    done;
    dt := !dt +. (Tel.now tel -. t0);
    signed := !signed + chunk
  done;
  Signer.close signer;
  let snap = Tel.snapshot tel in
  let delta name = counter snap name - counter before name in
  {
    us_per_op = !dt /. float_of_int ops;
    appends = delta "dsig_store_appends_total";
    fsyncs = delta "dsig_store_fsyncs_total";
  }

let run () =
  Harness.section "store: durable key-state signing overhead (one synced record per batch)";
  let ops = Harness.scaled 2000 in
  Printf.printf "foreground signs only, wots d=4 batch=64, %d signatures per mode\n" ops;
  let memory = run_mode ~ops (fun o -> o) in
  let stored =
    let dir = fresh_dir () in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () -> run_mode ~ops (Options.with_store (Options.store dir)))
  in
  let row (label, o) =
    [
      label;
      Harness.us2 o.us_per_op;
      (if o.us_per_op <= memory.us_per_op || memory.us_per_op <= 0.0 then "-"
       else Printf.sprintf "+%.0f%%" (100.0 *. (o.us_per_op /. memory.us_per_op -. 1.0)));
      string_of_int o.appends;
      string_of_int o.fsyncs;
    ]
  in
  Harness.print_table
    ~header:[ "mode"; "sign us/op"; "overhead"; "wal appends"; "fsyncs" ]
    [ row ("in-memory", memory); row ("store", stored) ];
  Harness.metric "store_sign_us" stored.us_per_op;
  Harness.metric "store_wal_appends" (float_of_int stored.appends)
