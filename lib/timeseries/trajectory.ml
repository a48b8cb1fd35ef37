type direction = Lower_better | Higher_better | Informational

let direction_name = function
  | Lower_better -> "lower-better"
  | Higher_better -> "higher-better"
  | Informational -> "informational"

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

(* name-based heuristics matching the bench suite's conventions:
   latencies end in _us, throughputs carry _ops_per_sec, scaling
   factors carry _speedup, goodput-retention fractions carry
   _retention, shed fractions carry _shed_ratio; anything else (entry
   counts, append totals) is tracked but never gates *)
let direction_of_name name =
  if contains name "_ops_per_sec" || contains name "_speedup" || contains name "_retention"
  then Higher_better
  else if has_suffix name "_us" || contains name "_shed_ratio" then Lower_better
  else Informational

type verdict = Within | Improved | Regressed | New_metric | Missing_metric

let verdict_name = function
  | Within -> "ok"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | New_metric -> "new"
  | Missing_metric -> "MISSING"

type entry = {
  e_name : string;
  e_direction : direction;
  e_base : float option;
  e_fresh : float option;
  e_delta_pct : float option;
  e_tolerance : float;
  e_verdict : verdict;
}

let default_tolerance = 0.5

let bench_tolerances =
  [
    ("store_sign_us", 3.0);
    ("translog_checkpoint_us", 1.5);
    ("translog_consistency_proof_us", 1.5);
    ("translog_inclusion_proof_us", 1.5);
    ("rotation_cutover_us", 3.0);
  ]

let judge direction ~base ~fresh ~tolerance =
  if base = 0.0 then Within (* relative bands are meaningless at zero *)
  else
    let ratio = fresh /. base in
    match direction with
    | Informational -> Within
    | Lower_better ->
        if ratio > 1.0 +. tolerance then Regressed
        else if ratio < 1.0 -. tolerance then Improved
        else Within
    | Higher_better ->
        if ratio < 1.0 -. tolerance then Regressed
        else if ratio > 1.0 +. tolerance then Improved
        else Within

let compare_metrics ?(tolerance = default_tolerance) ?(tolerances = [])
    ~baseline ~fresh () =
  if tolerance <= 0.0 then
    invalid_arg "Trajectory.compare_metrics: tolerance must be positive";
  let tol_of name =
    match List.assoc_opt name tolerances with Some t -> t | None -> tolerance
  in
  let names =
    List.sort_uniq compare (List.map fst baseline @ List.map fst fresh)
  in
  List.map
    (fun name ->
      let b = List.assoc_opt name baseline in
      let f = List.assoc_opt name fresh in
      let direction = direction_of_name name in
      let tol = tol_of name in
      let delta_pct =
        match (b, f) with
        | Some b, Some f when b <> 0.0 -> Some ((f -. b) /. b *. 100.0)
        | _ -> None
      in
      let verdict =
        match (b, f) with
        | None, Some _ -> New_metric
        | Some _, None -> Missing_metric
        | None, None -> Missing_metric (* unreachable *)
        | Some b, Some f -> judge direction ~base:b ~fresh:f ~tolerance:tol
      in
      {
        e_name = name;
        e_direction = direction;
        e_base = b;
        e_fresh = f;
        e_delta_pct = delta_pct;
        e_tolerance = tol;
        e_verdict = verdict;
      })
    names

(* a regression or a vanished metric fails the gate; a brand-new metric
   is fine — it just means the baseline wants regenerating *)
let failures entries =
  List.filter
    (fun e -> match e.e_verdict with Regressed | Missing_metric -> true | _ -> false)
    entries

let render entries =
  let buf = Buffer.create 1024 in
  let fv = function Some v -> Printf.sprintf "%14.3f" v | None -> "             -" in
  let fd = function
    | Some d -> Printf.sprintf "%+8.1f%%" d
    | None -> "        -"
  in
  Buffer.add_string buf
    (Printf.sprintf "%-36s %14s %14s %9s  %-13s %s\n" "metric" "baseline" "fresh"
       "delta" "direction" "verdict");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-36s %s %s %s  %-13s %s\n" e.e_name (fv e.e_base)
           (fv e.e_fresh) (fd e.e_delta_pct)
           (direction_name e.e_direction)
           (verdict_name e.e_verdict)))
    entries;
  Buffer.contents buf

(* --- snapshot parsing --- *)

let parse_snapshot body =
  let module J = Json_lite in
  match J.parse body with
  | Error e -> Error ("snapshot is not valid JSON: " ^ e)
  | Ok root -> (
      match J.member "metrics" root with
      | Some (J.Obj fields) ->
          Ok
            (List.filter_map
               (fun (name, v) -> Option.map (fun f -> (name, f)) (J.to_float v))
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
