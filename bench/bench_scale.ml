(* Multicore scale-out: signatures/sec and verifications/sec vs worker
   domain count (1/2/4/8) through the Dsig_util.Domain_pool plane.

   Method — modeled scaling from per-shard busy times. The work is
   partitioned exactly as Options.with_parallel partitions it
   (contiguous key-index / input-index ranges, one range per shard);
   each shard's job then runs to completion on its own and its busy
   time is measured on the monotonic clock. The modeled D-domain
   completion time is the slowest shard's busy time (ideal overlap, the
   same assumption the paper's per-core throughput columns make), so

     modeled speedup(D) = sum(shard busy) / max(shard busy)

   which reaches D only if the sharding is balanced and shards share no
   state — a verifier that serialized its shards on a global lock, or a
   skewed partition, shows up directly as a lower number. Independently
   of the model, the same workload is ALSO pushed through the real
   multi-domain path (Signer.sign_many / Verifier.verify_many with a
   live pool) and cross-checked against the single-domain verdicts, so
   the contended code path is exercised even when the host has a single
   core and wall-clock speedup is physically impossible. *)

open Dsig

let domain_counts = [ 1; 2; 4; 8 ]

let cfg = Config.make ~batch_size:128 ~queue_threshold:128 (Config.wots ~d:4)

let mono_us () = Dsig_telemetry.Tracer.mono_clock_us ()

(* Busy time of [f ()] on the monotonic clock, in microseconds. *)
let busy f =
  let t0 = mono_us () in
  f ();
  mono_us () -. t0

(* Contiguous shard ranges, mirroring Domain_pool.parallel_map. *)
let shard_ranges n shards =
  List.init shards (fun s -> (s * n / shards, ((s + 1) * n / shards) - 1))

let make_system ~pool () =
  let rng = Dsig_util.Rng.create 42L in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let options =
    match pool with
    | None -> Options.default
    | Some p -> Options.default |> Options.with_parallel p
  in
  let signer = Signer.create cfg ~id:0 ~eddsa:sk ~rng ~options ~verifiers:[ 1 ] () in
  let verifier = Verifier.create cfg ~id:1 ~pki ~options () in
  (signer, verifier)

let run () =
  Harness.section "Scale: signatures & verifications vs domain count";
  (* one batch of prepared keys exactly: no synchronous refill can land
     inside a shard's busy window and skew the balance *)
  let n = Harness.scaled 128 in
  Printf.printf "workload: %d ops per point, W-OTS+ d=4, batch 128 (modeled overlap;\n" n;
  Printf.printf "see bench_scale.ml for the method)\n";
  let msgs = Array.init n (fun i -> Printf.sprintf "scale-op-%06d" i) in
  let rows = ref [] in
  let speedups = ref [] in
  List.iter
    (fun d ->
      (* --- sign plane: per-shard busy = building bodies + encodings
         for a contiguous run of prepared keys --- *)
      let signer, verifier = make_system ~pool:None () in
      Signer.background_fill signer;
      (* promote the batch just built now, so that no minor collection
         copying it lands inside a shard's busy window *)
      Gc.minor ();
      let sign_busy =
        List.map
          (fun (lo, hi) ->
            let chunk = Array.sub msgs lo (hi - lo + 1) in
            busy (fun () -> ignore (Signer.sign_many signer chunk)))
          (shard_ranges n d)
      in
      let sign_sum = List.fold_left ( +. ) 0.0 sign_busy in
      let sign_max = List.fold_left Float.max 0.0 sign_busy in
      (* --- verify plane: signatures + delivered announcement, then
         per-shard busy = classifying a contiguous input range --- *)
      let signer2, _ = make_system ~pool:None () in
      Signer.background_fill signer2;
      let wires = Array.map (fun m -> Signer.sign signer2 m) msgs in
      List.iter (fun (_, ann) -> ignore (Verifier.deliver verifier ann)) (Signer.drain_outbox signer2);
      let pairs = Array.init n (fun i -> (msgs.(i), wires.(i))) in
      Gc.minor ();
      let verify_busy =
        List.map
          (fun (lo, hi) ->
            busy (fun () ->
                for i = lo to hi do
                  let msg, wire = pairs.(i) in
                  if not (Verifier.verify verifier ~msg wire) then
                    failwith "bench scale: verification failed"
                done))
          (shard_ranges n d)
      in
      let verify_sum = List.fold_left ( +. ) 0.0 verify_busy in
      let verify_max = List.fold_left Float.max 0.0 verify_busy in
      (* --- cross-check the real multi-domain path with a live pool --- *)
      (if d > 1 then begin
         let pool = Dsig_util.Domain_pool.create ~domains:d () in
         Fun.protect
           ~finally:(fun () -> Dsig_util.Domain_pool.shutdown pool)
           (fun () ->
             let psigner, pverifier = make_system ~pool:(Some pool) () in
             Signer.background_fill psigner;
             let pwires = Signer.sign_many psigner msgs in
             List.iter
               (fun (_, ann) -> ignore (Verifier.deliver pverifier ann))
               (Signer.drain_outbox psigner);
             let ok =
               Verifier.verify_many pverifier (Array.init n (fun i -> (msgs.(i), pwires.(i))))
             in
             if not (Array.for_all Verifier.accepted ok) then
               failwith "bench scale: pooled verification disagreed"
           )
       end);
      let fn = float_of_int n in
      let sign_tput = fn /. sign_max *. 1e6 in
      let verify_tput = fn /. verify_max *. 1e6 in
      let sign_speedup = sign_sum /. sign_max in
      let verify_speedup = verify_sum /. verify_max in
      speedups := (d, sign_speedup, verify_speedup, sign_tput, verify_tput) :: !speedups;
      rows :=
        [
          string_of_int d;
          Harness.us sign_sum;
          Harness.us sign_max;
          Harness.kops sign_tput;
          Printf.sprintf "%.2f" sign_speedup;
          Harness.us verify_sum;
          Harness.us verify_max;
          Harness.kops verify_tput;
          Printf.sprintf "%.2f" verify_speedup;
        ]
        :: !rows)
    domain_counts;
  Harness.print_table
    ~header:
      [
        "domains"; "sign sum us"; "sign max us"; "sign kops/s"; "sign x";
        "verify sum us"; "verify max us"; "verify kops/s"; "verify x";
      ]
    (List.rev !rows);
  (* ASCII plot: modeled verifications/sec vs domains *)
  Harness.subsection "verifications/sec vs domains (modeled overlap)";
  let sp = List.rev !speedups in
  let vmax = List.fold_left (fun a (_, _, _, _, v) -> Float.max a v) 0.0 sp in
  List.iter
    (fun (d, _, _, _, v) ->
      let bar = int_of_float (40.0 *. v /. vmax) in
      Printf.printf "%d domains | %-40s %s ops/s\n" d (String.make (Stdlib.max bar 1) '#')
        (Harness.kops v ^ "k"))
    sp;
  List.iter
    (fun (d, ss, vs, st, vt) ->
      Harness.metric (Printf.sprintf "scale_sign_speedup_%ddom" d) ss;
      Harness.metric (Printf.sprintf "scale_verify_speedup_%ddom" d) vs;
      Harness.metric (Printf.sprintf "scale_sign_ops_per_sec_%ddom" d) st;
      Harness.metric (Printf.sprintf "scale_verify_ops_per_sec_%ddom" d) vt)
    sp
