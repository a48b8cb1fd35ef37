(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (see DESIGN.md §3 for the experiment index).

     dune exec bench/main.exe            run everything
     dune exec bench/main.exe -- --list  list experiment ids
     dune exec bench/main.exe -- --only fig10 [--only tab1 ...]
     dune exec bench/main.exe -- --host  print host configuration (Table 3 stand-in)
     dune exec bench/main.exe -- --csv results
                                         also write every table as CSV under results/
     dune exec bench/main.exe -- --measured --only fig8
                                         drive the modeled figures with a
                                         host-measured cost model instead of
                                         the paper calibration
     dune exec bench/main.exe -- --ops 50
                                         cap every figure's workload at 50
                                         operations (shrinking time-horizon
                                         figures proportionally) — the smoke
                                         mode `dune build @smoke` uses
*)

let experiments : (string * string * (unit -> unit)) list ref = ref []
let register id descr f = experiments := (id, descr, f) :: !experiments

let () =
  register "micro" "microbenchmarks of the real crypto substrates" Bench_micro.run;
  register "tab1" "Table 1: EdDSA vs DSig latency/throughput/size" Bench_tab1.run;
  register "tab2" "Table 2: analytical HBSS comparison" Bench_tab2.run;
  register "fig1" "Figure 1: application latency breakdown" Bench_fig1.run;
  register "fig6" "Figure 6: HBSS configurations x hash functions" Bench_fig6.run;
  register "fig7" "Figure 7: end-to-end app latency, p10/p50/p90" Bench_fig7.run;
  register "fig8" "Figure 8: sign-tx-verify latency CDF + breakdown" Bench_fig8.run;
  register "fig9" "Figure 9: message-size sweep" Bench_fig9.run;
  register "fig10" "Figure 10: latency-throughput" Bench_fig10.run;
  register "fig11" "Figure 11: one-to-many / many-to-one @10Gbps" Bench_fig11.run;
  register "fig12" "Figure 12: request size x processing time @10Gbps" Bench_fig12.run;
  register "fig13" "Figure 13: EdDSA batch-size sweep" Bench_fig13.run;
  register "pareto" "parameter-space exploration and Pareto frontier (§5)" Bench_pareto.run;
  register "fluct" "uBFT fast/slow latency fluctuation under benign slowness (§6)" Bench_fluct.run;
  register "ablation" "ablations: batching, chain cache, bw reduction, EdDSA cache" Bench_ablation.run;
  register "pacing" "adaptive re-announce pacing under faults" Bench_pacing.run;
  register "store" "durable key-state store: foreground sign cost with and without it"
    Bench_store.run;
  register "translog" "transparency log: append throughput + proof latency vs tree size"
    Bench_translog.run;
  register "keylife" "key lifecycle: rotation cutover stall + revocation propagation"
    Bench_keylife.run;
  register "fleet" "fleet-scale load control: goodput & shed rate at 1x/2x/4x overload"
    Bench_fleet.run

let print_host () =
  Harness.section "Host configuration (stand-in for Table 3; see DESIGN.md)";
  Printf.printf "os: %s / ocaml %s / word size %d\n" Sys.os_type Sys.ocaml_version Sys.word_size;
  Printf.printf "network & NICs: simulated (lib/simnet) — 100 Gbps default, 10 Gbps caps per\n";
  Printf.printf "experiment; 1 us base latency + 0.6 ns/B, per-NIC FIFO serialization\n"

let () =
  let args = Array.to_list Sys.argv in
  let all = List.rev !experiments in
  let only =
    let rec collect = function
      | "--only" :: id :: rest -> id :: collect rest
      | _ :: rest -> collect rest
      | [] -> []
    in
    collect args
  in
  if List.mem "--measured" args then Harness.use_measured ();
  (let rec find_ops = function
     | "--ops" :: n :: _ -> (
         match int_of_string_opt n with
         | Some n when n > 0 -> Harness.ops_override := Some n
         | _ ->
             Printf.eprintf "--ops expects a positive integer\n";
             exit 1)
     | _ :: rest -> find_ops rest
     | [] -> ()
   in
   find_ops args);
  (let rec find_csv = function
     | "--csv" :: dir :: _ -> Harness.set_csv_dir dir
     | _ :: rest -> find_csv rest
     | [] -> ()
   in
   find_csv args);
  let snapshot_path =
    let rec find = function
      | "--snapshot" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  if List.mem "--list" args then
    List.iter (fun (id, descr, _) -> Printf.printf "%-10s %s\n" id descr) all
  else begin
    if List.mem "--host" args || only = [] then print_host ();
    let selected =
      if only = [] then all else List.filter (fun (id, _, _) -> List.mem id only) all
    in
    if selected = [] && only <> [] then begin
      Printf.eprintf "unknown experiment id(s); try --list\n";
      exit 1
    end;
    List.iter (fun (_, _, f) -> f ()) selected;
    (match snapshot_path with Some path -> Harness.write_bench_snapshot path | None -> ());
    print_newline ()
  end
