(* Smoke gate for the bench harness (`dune build @smoke`): after an
   --ops-shrunk run with --csv DIR, every figure's *-telemetry.json
   snapshot must carry the lifecycle summary keys the scrape endpoint
   and offline tooling consume, and the emitted BENCH_smoke.json must
   carry every plane's pinned metric plus its provenance meta block.
   With a second argument — a committed baseline snapshot — the fresh
   metrics are additionally held to the perf-trajectory tolerance
   bands (Dsig_timeseries.Trajectory), so a regression beyond the band
   fails @smoke, not just a missing key. Exits non-zero listing
   offending files/metrics. *)

module Trajectory = Dsig_timeseries.Trajectory

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let required =
  [
    "\"lifecycle\""; "\"planes\""; "\"started\""; "\"completed\""; "\"full\"";
    (* adaptive-pacing series, declared at harness startup so they ride
       in every snapshot even before the pacing experiment runs *)
    "\"dsig_rtt_us\""; "\"dsig_rto_us\""; "\"dsig_reannounce_redundant_total\"";
    (* durability-plane series (lib/store), declared the same way *)
    "\"dsig_store_fsync_us\""; "\"dsig_store_appends_total\"";
    "\"dsig_store_burned_keys_total\""; "\"dsig_store_recoveries_total\"";
    (* transparency-plane series (lib/apps/translog) *)
    "\"dsig_translog_appends_total\""; "\"dsig_translog_checkpoints_total\"";
    "\"dsig_translog_split_views_total\""; "\"dsig_translog_append_us\"";
    "\"dsig_translog_proof_us\"";
  ]

(* the pinned key metrics every BENCH_smoke.json must carry — one per
   plane the smoke run exercises *)
let required_bench_metrics =
  [
    "micro_eddsa_sign_us"; "micro_eddsa_verify_us"; "micro_eddsa_verify_prepared_us";
    "micro_dsig_sign_us";
    (* fast- and slow-path verify through Verifier.verify, and allocation
       per call (bench micro) *)
    "micro_dsig_verify_fast_us"; "micro_dsig_verify_slow_us"; "alloc_dsig_verify_fast_words";
    "alloc_dsig_verify_slow_words"; "alloc_wots_verify_words";
    "store_sign_us"; "translog_append_us"; "translog_inclusion_proof_us";
    "translog_consistency_proof_us"; "translog_checkpoint_us";
    (* parallel plane (bench scale) *)
    "scale_sign_speedup_4dom"; "scale_verify_speedup_4dom";
    "scale_verify_ops_per_sec_1dom"; "scale_verify_ops_per_sec_4dom";
    (* key lifecycle plane (bench keylife) *)
    "rotation_cutover_us"; "revocation_propagate_us";
    (* load-control plane (bench fleet) *)
    "fleet_goodput_ops_per_sec_1x"; "fleet_goodput_ops_per_sec_2x";
    "fleet_goodput_ops_per_sec_4x"; "fleet_shed_ratio_1x"; "fleet_shed_ratio_2x";
    "fleet_shed_ratio_4x"; "fleet_goodput_retention_4x";
  ]

(* Value gates: metrics that must not only be present but clear a floor.
   The 4-domain verify speedup is the parallel plane's regression canary
   — balanced shard ownership and lock-free fold-back give ~4x modeled
   overlap; a verifier serializing its shards on a global lock collapses
   it towards 1x. *)
let required_floors =
  [
    ("scale_verify_speedup_4dom", 2.5);
    (* load-control canary: at 4x overload admission control must keep
       at least half of the 1x goodput — an unbounded queue collapses
       this toward zero as every sojourn blows past its deadline *)
    ("fleet_goodput_retention_4x", 0.5);
  ]

(* Value gates in the other direction: metrics that must stay at or
   under a ceiling. A fleet provisioned with 2x headroom must not shed
   at its nominal operating point — any shedding at 1x means the
   admission controller is tuned into false positives. *)
let required_ceilings =
  [
    ("fleet_shed_ratio_1x", 0.0);
    (* minor-heap words per call: deterministic, so pinned at the figures
       of the allocation-free kernels. A rise means a kernel under the
       fast path allocates again. The slow path is dominated by the
       128-step Ed25519 chain under the PKI's prepared key; a rise there
       means it allocates more, or fell back to a one-shot key. *)
    ("alloc_dsig_verify_fast_words", 1471.0);
    ("alloc_dsig_verify_slow_words", 38001.0);
    ("alloc_wots_verify_words", 619.0);
  ]

(* the provenance block the snapshot writer stamps (schema v2) — a
   baseline without it cannot be judged comparable to a fresh run *)
let required_meta_keys =
  [ "\"meta\""; "\"written_at\""; "\"git_rev\""; "\"arch\""; "\"domains\""; "\"ocaml\"" ]

let check_bench_snapshot ?baseline dir =
  let path = Filename.concat dir "BENCH_smoke.json" in
  if not (Sys.file_exists path) then begin
    Printf.eprintf "smoke_check: %s missing\n" path;
    exit 1
  end;
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let missing_meta = List.filter (fun k -> not (contains s k)) required_meta_keys in
  if missing_meta <> [] then begin
    List.iter (fun k -> Printf.eprintf "smoke_check: %s lacks meta key %s\n" path k) missing_meta;
    exit 1
  end;
  let fresh =
    match Trajectory.parse_snapshot s with
    | Ok metrics -> metrics
    | Error e ->
        Printf.eprintf "smoke_check: fresh %s: %s\n" path e;
        exit 1
  in
  let missing = List.filter (fun k -> not (List.mem_assoc k fresh)) required_bench_metrics in
  if missing <> [] then begin
    List.iter (fun k -> Printf.eprintf "smoke_check: %s lacks metric %S\n" path k) missing;
    exit 1
  end;
  let gate ~bound_name ~beyond ~violated (name, bound) =
    match List.assoc_opt name fresh with
    | None ->
        Printf.eprintf "smoke_check: %s lacks metric %S\n" path name;
        exit 1
    | Some v when violated v bound ->
        Printf.eprintf "smoke_check: %s: %s = %.2f %s %s %.2f\n" path name v beyond bound_name
          bound;
        exit 1
    | Some v -> Printf.printf "smoke_check: %s = %.2f (%s %.2f)\n" name v bound_name bound
  in
  List.iter (gate ~bound_name:"floor" ~beyond:"below" ~violated:( < )) required_floors;
  List.iter (gate ~bound_name:"ceiling" ~beyond:"above" ~violated:( > )) required_ceilings;
  Printf.printf "smoke_check: %s carries all %d pinned metrics\n" path
    (List.length required_bench_metrics);
  (* perf trajectory: hold the fresh metrics to the committed
     baseline's tolerance bands *)
  match baseline with
  | None -> ()
  | Some base_path ->
      let read p =
        let ic = open_in_bin p in
        let b = really_input_string ic (in_channel_length ic) in
        close_in ic;
        b
      in
      let base_body =
        try read base_path
        with Sys_error e ->
          Printf.eprintf "smoke_check: cannot read baseline: %s\n" e;
          exit 1
      in
      (match Trajectory.parse_snapshot base_body with
      | Error e ->
          Printf.eprintf "smoke_check: baseline %s: %s\n" base_path e;
          exit 1
      | Ok baseline -> (
          let entries =
            Trajectory.compare_metrics ~tolerances:Trajectory.bench_tolerances ~baseline ~fresh ()
          in
          match Trajectory.failures entries with
          | [] ->
              Printf.printf "smoke_check: trajectory vs %s: %d metrics within band\n" base_path
                (List.length entries)
          | bad ->
              print_string (Trajectory.render entries);
              List.iter
                (fun e ->
                  Printf.eprintf "smoke_check: trajectory: %s %s\n" e.Trajectory.e_name
                    (Trajectory.verdict_name e.Trajectory.e_verdict))
                bad;
              exit 1))

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "smoke-results" in
  let baseline = if Array.length Sys.argv > 2 then Some Sys.argv.(2) else None in
  let entries =
    try Sys.readdir dir
    with Sys_error e ->
      Printf.eprintf "smoke_check: %s\n" e;
      exit 1
  in
  let snaps =
    Array.to_list entries |> List.filter (fun f -> Filename.check_suffix f "-telemetry.json")
  in
  if snaps = [] then begin
    Printf.eprintf "smoke_check: no *-telemetry.json under %s\n" dir;
    exit 1
  end;
  let bad =
    List.filter
      (fun f ->
        let ic = open_in (Filename.concat dir f) in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        not (List.for_all (contains s) required))
      snaps
  in
  if bad = [] then
    Printf.printf "smoke_check: %d telemetry snapshots carry lifecycle keys\n" (List.length snaps)
  else begin
    List.iter (fun f -> Printf.eprintf "smoke_check: %s/%s lacks lifecycle keys\n" dir f) bad;
    exit 1
  end;
  check_bench_snapshot ?baseline dir
