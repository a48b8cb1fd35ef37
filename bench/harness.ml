(* Shared helpers for the benchmark harnesses: table printing, bechamel
   wrappers, the modeled network-transmission formula, and compute-time
   jitter for percentile spreads. *)

open Bechamel
open Toolkit
module CM = Dsig_costmodel.Costmodel

(* The cost model driving every modeled figure: the paper calibration by
   default, or a host-measured one under --measured. Read at run() time,
   never at module initialization. *)
let selected_cm : CM.t option ref = ref None

let cm () = Option.value ~default:CM.paper_dalek !selected_cm

(* Sodium differs from Dalek only in EdDSA costs; under --measured there
   is a single (our) EdDSA, so both baselines collapse to it. *)
let cm_sodium () =
  match !selected_cm with Some m -> m | None -> CM.paper_sodium

(* Optional global shrink of per-figure workload sizes (--ops N): every
   harness loop sized through [scaled] runs at most N operations, and
   time-horizon figures shrink proportionally through [scaled_us]
   (treating N as a fraction of a nominal 1000-op figure). Lets the
   @smoke alias regenerate every figure in seconds. *)
let ops_override : int option ref = ref None

let scaled n = match !ops_override with Some o -> Stdlib.min o n | None -> n

let scaled_us h =
  match !ops_override with
  | Some o -> h *. Float.min 1.0 (float_of_int o /. 1000.0)
  | None -> h

let use_measured () =
  let m = CM.measure () in
  selected_cm := Some m;
  Printf.printf
    "using host-measured cost model: hash %.3f us, blake3 %.3f us, eddsa %.1f/%.1f us,\n     sign fixed %.2f us, keygen fixed %.2f us\n"
    m.CM.hash_us m.CM.blake3_us m.CM.eddsa_sign_us m.CM.eddsa_verify_us m.CM.sign_fixed_us
    m.CM.keygen_fixed_us

(* Optional CSV mirroring (--csv DIR): every printed table also lands in
   DIR/<section-slug>[-<n>].csv so figures can be replotted offline. *)
let csv_dir : string option ref = ref None
let current_slug = ref "untitled"
let slug_counter : (string, int) Hashtbl.t = Hashtbl.create 16

let set_csv_dir dir =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
  csv_dir := Some dir

let slugify title =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | '0' .. '9' -> c | 'A' .. 'Z' -> Char.lowercase_ascii c | _ -> '-')
    (String.concat "-" (String.split_on_char ' ' (String.lowercase_ascii title)))
  |> fun s -> if String.length s > 40 then String.sub s 0 40 else s

let section title =
  current_slug := slugify title;
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title =
  Printf.printf "\n-- %s --\n" title

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

(* Telemetry snapshot mirroring: next to every CSV, drop the default
   registry's snapshot (or the [snapshot] the experiment hands over,
   e.g. a deployment's merged view) as <base>-telemetry.json so the
   per-phase counters and histograms the harness populated while
   producing that table (batch generation, sign/verify paths, ...) can
   be inspected offline alongside the results. *)
let write_telemetry_snapshot ?snapshot dir base =
  let tel = Dsig_telemetry.Telemetry.default in
  let snap =
    match snapshot with Some s -> s | None -> Dsig_telemetry.Telemetry.snapshot tel
  in
  let js = Dsig_telemetry.Export.json ~lifecycle:tel.Dsig_telemetry.Telemetry.lifecycle snap in
  let oc = open_out (Filename.concat dir (base ^ "-telemetry.json")) in
  output_string oc (js ^ "\n");
  close_out oc

(* Key-metric recorder (--snapshot PATH): experiments call [metric] for
   the handful of numbers worth pinning run-over-run (sign/verify
   microcosts, store overheads, translog append/proof latencies); the
   snapshot writer dumps them as one flat JSON object so a smoke gate —
   or a human diffing two checkouts — can key on stable names instead of
   scraping tables. *)
let metrics : (string * float) list ref = ref []

let metric name value = metrics := (name, value) :: !metrics

(* First line of a command's stdout, or [default] if the command fails
   or prints nothing — used for best-effort provenance (git rev, arch)
   in the snapshot meta block. *)
let command_line ~default cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try input_line ic with End_of_file -> default in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when String.trim line <> "" -> String.trim line
    | _ -> default
  with Unix.Unix_error _ | Sys_error _ -> default

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let write_bench_snapshot path =
  let oc = open_out path in
  output_string oc "{\n  \"schema\": \"dsig-bench-smoke-v2\",\n";
  (* provenance: enough to tell whether a committed baseline and a fresh
     snapshot are comparable (same host class, same domain budget) and
     which checkout produced each *)
  output_string oc "  \"meta\": {\n";
  Printf.fprintf oc "    \"written_at\": %S,\n" (iso8601 (Unix.time ()));
  Printf.fprintf oc "    \"git_rev\": %S,\n"
    (command_line ~default:"unknown" "git rev-parse --short HEAD 2>/dev/null");
  Printf.fprintf oc "    \"arch\": %S,\n" (command_line ~default:"unknown" "uname -m");
  Printf.fprintf oc "    \"domains\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc "    \"ocaml\": %S\n" Sys.ocaml_version;
  output_string oc "  },\n  \"metrics\": {\n";
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) (List.rev !metrics) in
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "    %S: %s%s\n" name
        (if Float.is_finite v then Printf.sprintf "%.6f" v else "null")
        (if i = List.length sorted - 1 then "" else ","))
    sorted;
  output_string oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %d bench metrics to %s\n" (List.length sorted) path

let write_csv ?snapshot ~header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      let n = Option.value ~default:0 (Hashtbl.find_opt slug_counter !current_slug) in
      Hashtbl.replace slug_counter !current_slug (n + 1);
      let base =
        if n = 0 then !current_slug else Printf.sprintf "%s-%d" !current_slug n
      in
      let oc = open_out (Filename.concat dir (base ^ ".csv")) in
      List.iter
        (fun row -> output_string oc (String.concat "," (List.map csv_escape row) ^ "\n"))
        (header :: rows);
      close_out oc;
      write_telemetry_snapshot ?snapshot dir base

(* column-aligned table printing *)
let print_table ?snapshot ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> Stdlib.max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c cell ->
        let w = List.nth widths c in
        if c = 0 then Printf.printf "%-*s" w cell else Printf.printf "  %*s" w cell)
      row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  write_csv ?snapshot ~header rows

let us v = Printf.sprintf "%.1f" v
let us2 v = Printf.sprintf "%.2f" v
let kops v = Printf.sprintf "%.0f" (v /. 1000.0)

(* --- bechamel --- *)

(* Run a list of Test.t and return (full test name, ns per run). *)
let run_bechamel ?(quota = 0.25) tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second quota) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.concat_map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.fold
        (fun name ols acc ->
          match Analyze.OLS.estimates ols with
          | Some [ ns ] -> (name, ns) :: acc
          | Some _ | None -> acc)
        results [])
    tests

(* --- transmission model (§8.2; see DESIGN.md) --- *)

(* Incremental transmission time of a payload: ~1 µs base plus ~0.6 ns/B
   of per-byte software/PCIe cost. Reproduces Table 1's measured 1.1 µs
   (EdDSA, 72 B) and 2.0 µs (DSig, 1,592 B) transmissions. *)
let tx_us ?(base = 1.05) ?(per_byte = 0.0006) bytes = base +. (per_byte *. float_of_int bytes)

(* --- compute jitter --- *)

(* Multiplicative noise with a light exponential tail: real systems show
   flat CDFs with a small knee near p99 (Figure 8). *)
let jitter rng v =
  let u = 0.98 +. Dsig_util.Rng.float rng 0.04 in
  (v *. u) +. Dsig_util.Rng.exponential rng ~mean:(0.01 *. v)

(* percentile triple used throughout §8 *)
let p10_50_90 stats =
  ( Dsig_simnet.Stats.percentile stats 10.0,
    Dsig_simnet.Stats.percentile stats 50.0,
    Dsig_simnet.Stats.percentile stats 90.0 )
