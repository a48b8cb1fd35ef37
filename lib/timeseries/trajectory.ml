type direction = Lower_better | Higher_better

let direction_name = function
  | Lower_better -> "lower-better"
  | Higher_better -> "higher-better"

type kind = Measured of float | Deterministic

type row = { name : string; kind : kind; direction : direction }

let measured ?(band = 0.5) name direction = { name; kind = Measured band; direction }
let exact name direction = { name; kind = Deterministic; direction }

(* One row per metric in BENCH_smoke.json, sorted by name. Deterministic
   rows are exact per build: minor words per call, the virtual-clocked
   fleet and keylife, and the bench's own workload counts. Measured
   rows sit in a band around the baseline: ±50% by default, since the
   smoke bench runs 50 ops on shared hardware; fsync-bound and
   coarsely-quantized figures get wider ones. *)
let table =
  [
    exact "alloc_dsig_sign_words" Lower_better;
    exact "alloc_dsig_verify_fast_words" Lower_better;
    exact "alloc_dsig_verify_slow_words" Lower_better;
    exact "alloc_wots_verify_words" Lower_better;
    exact "fleet_goodput_ops_per_sec_1x" Higher_better;
    exact "fleet_goodput_ops_per_sec_2x" Higher_better;
    exact "fleet_goodput_ops_per_sec_4x" Higher_better;
    exact "fleet_goodput_retention_4x" Higher_better;
    exact "fleet_shed_ratio_1x" Lower_better;
    exact "fleet_shed_ratio_2x" Lower_better;
    exact "fleet_shed_ratio_4x" Lower_better;
    measured "micro_dsig_sign_fg_us" Lower_better;
    measured "micro_dsig_sign_us" Lower_better;
    measured "micro_dsig_verify_fast_us" Lower_better;
    measured "micro_dsig_verify_slow_us" Lower_better;
    measured "micro_eddsa_sign_us" Lower_better;
    measured "micro_eddsa_verify_prepared_us" Lower_better;
    measured "micro_eddsa_verify_us" Lower_better;
    measured "micro_haraka256_words_us" Lower_better;
    measured "micro_wots_keygen_us" Lower_better;
    measured "micro_wots_verify_us" Lower_better;
    exact "revocation_propagate_us" Lower_better;
    measured ~band:3.0 "rotation_cutover_us" Lower_better;
    measured ~band:3.0 "store_sign_us" Lower_better;
    exact "store_wal_appends" Lower_better;
    measured "translog_append_us" Lower_better;
    measured ~band:1.5 "translog_checkpoint_us" Lower_better;
    measured ~band:1.5 "translog_consistency_proof_us" Lower_better;
    (* the log's size after the largest rung: a workload count *)
    exact "translog_entries" Higher_better;
    measured ~band:1.5 "translog_inclusion_proof_us" Lower_better;
  ]

let kind_name row =
  Printf.sprintf "%s, %s"
    (match row.kind with Measured _ -> "measured" | Deterministic -> "deterministic")
    (direction_name row.direction)

let band_name row =
  match row.kind with
  | Measured b -> Printf.sprintf "band ±%.0f%%" (b *. 100.0)
  | Deterministic -> "band exact"

type verdict = Within | Improved | Regressed | Moved | Non_finite | Missing | No_row

let verdict_name = function
  | Within -> "ok"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Moved -> "MOVED (deterministic: re-pin on purpose)"
  | Non_finite -> "NON-FINITE"
  | Missing -> "MISSING"
  | No_row -> "NO ROW (add one to Trajectory.table)"

type entry = {
  e_name : string;
  e_row : row option;
  e_base : float option;
  e_fresh : float option;
  e_verdict : verdict;
}

(* multiplied out rather than divided, so a zero baseline still gates *)
let judge row ~base ~fresh =
  match row.kind with
  | Deterministic -> if fresh = base then Within else Moved
  | Measured band -> (
      let above = fresh > base *. (1.0 +. band) and below = fresh < base *. (1.0 -. band) in
      match row.direction with
      | Lower_better -> if above then Regressed else if below then Improved else Within
      | Higher_better -> if below then Regressed else if above then Improved else Within)

let compare_metrics ~baseline ~fresh =
  let names =
    List.sort_uniq compare
      (List.map (fun r -> r.name) table @ List.map fst baseline @ List.map fst fresh)
  in
  List.map
    (fun name ->
      let row = List.find_opt (fun r -> r.name = name) table in
      let b = List.assoc_opt name baseline and f = List.assoc_opt name fresh in
      let verdict =
        match (row, b, f) with
        | None, _, _ -> No_row
        | Some _, None, _ | Some _, _, None -> Missing
        | Some row, Some b, Some f ->
            if not (Float.is_finite b && Float.is_finite f) then Non_finite
            else judge row ~base:b ~fresh:f
      in
      { e_name = name; e_row = row; e_base = b; e_fresh = f; e_verdict = verdict })
    names

let failures entries =
  List.filter (fun e -> match e.e_verdict with Within | Improved -> false | _ -> true) entries

let describe e =
  let fv = function Some v -> Printf.sprintf "%.3f" v | None -> "-" in
  let kind, band =
    match e.e_row with
    | Some row -> (kind_name row, band_name row)
    | None -> ("no row", "no band")
  in
  Printf.sprintf "%s (%s): baseline %s, fresh %s, %s: %s" e.e_name kind (fv e.e_base)
    (fv e.e_fresh) band (verdict_name e.e_verdict)

(* --- snapshot parsing --- *)

(* the snapshot writer spells a non-finite value as null; it parses back
   to nan so the gate reports it under its own name *)
let parse_snapshot body =
  let module J = Json_lite in
  match J.parse body with
  | Error e -> Error ("snapshot is not valid JSON: " ^ e)
  | Ok root -> (
      match J.member "metrics" root with
      | Some (J.Obj fields) ->
          Ok
            (List.filter_map
               (fun (name, v) ->
                 match v with
                 | J.Null -> Some (name, Float.nan)
                 | v -> Option.map (fun f -> (name, f)) (J.to_float v))
               fields)
      | _ -> Error "snapshot has no \"metrics\" object")

let meta_of_snapshot body =
  let module J = Json_lite in
  match J.parse body with
  | Error _ -> []
  | Ok root -> (
      match J.member "meta" root with
      | Some (J.Obj fields) ->
          List.filter_map
            (fun (k, v) ->
              match v with
              | J.Str s -> Some (k, s)
              | J.Num n ->
                  Some
                    ( k,
                      if Float.is_integer n then Printf.sprintf "%.0f" n
                      else Printf.sprintf "%.6g" n )
              | _ -> None)
            fields
      | _ -> [])
