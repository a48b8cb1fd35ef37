(* Perf-trajectory gate (`dune build @trajectory`): compare a fresh
   bench snapshot against the committed baseline with per-metric
   tolerance bands. Usage:

     trajectory.exe BASELINE.json FRESH.json [TOLERANCE]

   Exits 1 if any metric regressed beyond its band or disappeared;
   improvements and brand-new metrics report but pass (a new metric
   just means the committed baseline wants regenerating). *)

module Trajectory = Dsig_timeseries.Trajectory

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let load_snapshot label path =
  let body = try read_file path with Sys_error e ->
    Printf.eprintf "trajectory: cannot read %s snapshot: %s\n" label e;
    exit 2
  in
  match Trajectory.parse_snapshot body with
  | Ok metrics -> (metrics, Trajectory.meta_of_snapshot body)
  | Error e ->
      Printf.eprintf "trajectory: %s snapshot %s: %s\n" label path e;
      exit 2

let meta_line label meta =
  let get k = Option.value ~default:"?" (List.assoc_opt k meta) in
  Printf.printf "%-8s rev=%s arch=%s domains=%s written_at=%s\n" label (get "git_rev")
    (get "arch") (get "domains") (get "written_at")

let () =
  if Array.length Sys.argv < 3 then begin
    Printf.eprintf "usage: trajectory.exe BASELINE.json FRESH.json [TOLERANCE]\n";
    exit 2
  end;
  let baseline, base_meta = load_snapshot "baseline" Sys.argv.(1) in
  let fresh, fresh_meta = load_snapshot "fresh" Sys.argv.(2) in
  let tolerance =
    if Array.length Sys.argv > 3 then
      match float_of_string_opt Sys.argv.(3) with
      | Some t when t > 0.0 -> t
      | _ ->
          Printf.eprintf "trajectory: bad tolerance %S\n" Sys.argv.(3);
          exit 2
    else Trajectory.default_tolerance
  in
  meta_line "baseline" base_meta;
  meta_line "fresh" fresh_meta;
  let entries =
    Trajectory.compare_metrics ~tolerance ~tolerances:Trajectory.bench_tolerances ~baseline ~fresh ()
  in
  print_string (Trajectory.render entries);
  match Trajectory.failures entries with
  | [] ->
      Printf.printf "trajectory: %d metrics within band (tolerance %.0f%%)\n"
        (List.length entries) (tolerance *. 100.0)
  | bad ->
      List.iter
        (fun e ->
          Printf.eprintf "trajectory: %s %s%s\n" e.Trajectory.e_name
            (Trajectory.verdict_name e.Trajectory.e_verdict)
            (match e.Trajectory.e_delta_pct with
            | Some d -> Printf.sprintf " (%+.1f%%, band %.0f%%)" d (e.Trajectory.e_tolerance *. 100.0)
            | None -> ""))
        bad;
      exit 1
