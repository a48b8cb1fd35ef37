(* Smoke gate for the bench harness (`dune build @smoke`):

     smoke_check.exe DIR BASELINE.json

   after an --ops-shrunk run with --csv DIR, every *-telemetry.json
   snapshot under DIR must carry the lifecycle summary the scrape
   endpoint and offline tooling consume, and the snapshot of each plane's
   owning experiment must carry that plane's series. DIR/BENCH_smoke.json
   must carry its provenance meta block, and its metrics are held row by
   row to the committed baseline by the gate table
   (Dsig_timeseries.Trajectory). Exits non-zero listing what failed. *)

module Trajectory = Dsig_timeseries.Trajectory
module J = Dsig_timeseries.Json_lite

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke_check: " ^ s); exit 1) fmt

let read path =
  try
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with Sys_error e -> fail "%s" e

let parse path = match J.parse (read path) with Ok v -> v | Error e -> fail "%s: %s" path e

let lifecycle_fields = [ "started"; "completed"; "full"; "planes" ]

(* each plane's series, and the slug prefix of the experiment whose
   telemetry snapshot must carry them *)
let planes =
  [
    ("re-announce-pacing-", [ "dsig_rtt_us"; "dsig_rto_us"; "dsig_reannounce_redundant_total" ]);
    ( "store-",
      [
        "dsig_store_fsync_us"; "dsig_store_appends_total"; "dsig_store_recoveries_total";
      ] );
    ( "translog-",
      [
        "dsig_translog_appends_total"; "dsig_translog_checkpoints_total";
        "dsig_translog_append_us"; "dsig_translog_proof_us";
      ] );
  ]

let series_names snap =
  List.concat_map
    (fun section ->
      match J.member section snap with Some (J.Obj fields) -> List.map fst fields | _ -> [])
    [ "counters"; "gauges"; "histograms" ]

(* the provenance block the snapshot writer stamps: a baseline without
   it cannot be judged comparable to a fresh run *)
let meta_keys = [ "written_at"; "git_rev"; "arch"; "domains"; "ocaml" ]

let metrics_of label path body =
  List.iter
    (fun k ->
      if not (List.mem_assoc k (Trajectory.meta_of_snapshot body)) then
        fail "%s %s lacks meta key %S" label path k)
    meta_keys;
  match Trajectory.parse_snapshot body with
  | Ok metrics -> metrics
  | Error e -> fail "%s %s: %s" label path e

let () =
  if Array.length Sys.argv <> 3 then fail "usage: smoke_check.exe DIR BASELINE.json";
  let dir = Sys.argv.(1) and base_path = Sys.argv.(2) in
  let snaps =
    (try Sys.readdir dir with Sys_error e -> fail "%s" e)
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f "-telemetry.json")
    |> List.sort compare
  in
  if snaps = [] then fail "no *-telemetry.json under %s" dir;
  List.iter
    (fun f ->
      let snap = parse (Filename.concat dir f) in
      match J.member "lifecycle" snap with
      | Some (J.Obj fields) ->
          List.iter
            (fun k -> if not (List.mem_assoc k fields) then fail "%s: lifecycle lacks %S" f k)
            lifecycle_fields
      | _ -> fail "%s: no lifecycle object" f)
    snaps;
  List.iter
    (fun (prefix, series) ->
      match List.find_opt (String.starts_with ~prefix) snaps with
      | None -> fail "no %s*-telemetry.json under %s" prefix dir
      | Some f ->
          let names = series_names (parse (Filename.concat dir f)) in
          List.iter (fun s -> if not (List.mem s names) then fail "%s lacks series %S" f s) series)
    planes;
  Printf.printf "smoke_check: %d telemetry snapshots carry the lifecycle summary and plane series\n%!"
    (List.length snaps);
  let fresh_path = Filename.concat dir "BENCH_smoke.json" in
  let fresh = metrics_of "fresh" fresh_path (read fresh_path) in
  let baseline = metrics_of "baseline" base_path (read base_path) in
  let entries = Trajectory.compare_metrics ~baseline ~fresh in
  match Trajectory.failures entries with
  | [] ->
      Printf.printf "smoke_check: %d rows pass against %s\n" (List.length entries) base_path
  | bad ->
      List.iter (fun e -> prerr_endline ("smoke_check: " ^ Trajectory.describe e)) bad;
      exit 1
