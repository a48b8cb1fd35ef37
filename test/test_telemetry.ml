(* Dsig_telemetry: histogram bucketing and percentiles, snapshot
   merging, domain-safe cells and registry probes, the bundle's clock,
   and golden exporter outputs.

   The multi-domain cases spawn DSIG_STRESS_DOMAINS domains (default 4,
   clamped to [2, 8]), the same bound the parallel suite uses. *)

module M = Dsig_telemetry.Metric
module H = M.Histogram
module Registry = Dsig_telemetry.Registry
module Export = Dsig_telemetry.Export
module Tel = Dsig_telemetry.Telemetry

let stress_domains =
  match Sys.getenv_opt "DSIG_STRESS_DOMAINS" with
  | Some s -> ( match int_of_string_opt s with Some n -> Stdlib.max 2 (Stdlib.min 8 n) | None -> 4)
  | None -> 4

(* --- primitives --- *)

let test_counter_gauge () =
  let c = M.Counter.create () in
  M.Counter.incr c;
  M.Counter.incr ~by:5 c;
  M.Counter.incr ~by:(-3) c;
  Alcotest.(check int) "monotonic: negative increments clamp to 0" 6 (M.Counter.value c);
  let g = M.Gauge.create () in
  M.Gauge.set g 4.0;
  M.Gauge.add g (-1.5);
  Alcotest.(check (float 1e-9)) "gauge set+add" 2.5 (M.Gauge.value g)

let test_bucket_bounds () =
  (* bucket 0 swallows everything at or below 2^min_exp, including
     non-positive values; +inf lands in the overflow bucket *)
  List.iter
    (fun (v, i) ->
      Alcotest.(check int) (Printf.sprintf "bucket_index %g" v) i (H.bucket_index v))
    [
      (0.0, 0);
      (-3.0, 0);
      (neg_infinity, 0);
      (ldexp 1.0 H.min_exp, 0);
      (1.0, -H.min_exp);
      (* exact powers of two land on their own bound *)
      (4.0, 2 - H.min_exp);
      (4.0001, 3 - H.min_exp);
      (infinity, H.num_buckets - 1);
    ];
  Alcotest.(check bool) "overflow bound is +Inf" true
    (H.bucket_upper_bound (H.num_buckets - 1) = infinity)

let bucket_invariant =
  QCheck.Test.make ~name:"bucket_index picks the tightest bound" ~count:500
    QCheck.(pair (float_range 0.5 1.0) (int_range (-40) 70))
    (fun (m, e) ->
      let v = ldexp m e in
      let i = H.bucket_index v in
      v <= H.bucket_upper_bound i
      && (i = 0 || i = H.num_buckets - 1 || v > H.bucket_upper_bound (i - 1)))

(* The bucket as [Float.frexp] gives it: v = m * 2^e, m in [0.5, 1),
   so the bound is e unless m = 0.5 (v is the power of two below). *)
let frexp_bucket_index v =
  if Float.is_nan v || v <= ldexp 1.0 H.min_exp then 0
  else if v = infinity then H.num_buckets - 1
  else begin
    let m, e = Float.frexp v in
    let exp_needed = if m = 0.5 then e - 1 else e in
    min (H.num_buckets - 1) (max 0 (exp_needed - H.min_exp))
  end

let bucket_edges =
  let m = H.min_exp and top = H.min_exp + H.num_buckets in
  [ 0.0; -0.0; Float.min_float; Float.min_float /. 2.0; ldexp 1.0 (-1074); Float.pred Float.min_float;
    ldexp 1.0 m; Float.succ (ldexp 1.0 m); Float.pred (ldexp 1.0 m); ldexp 1.0 (m + 1);
    ldexp 1.0 (top - 2); Float.succ (ldexp 1.0 (top - 2)); ldexp 1.0 top; Float.max_float;
    nan; infinity; neg_infinity; -1.0; 1.0; 3.0; 0.75 ]
  @ List.init 100 (fun i -> ldexp 1.0 (i - 60))

let bucket_vs_frexp =
  QCheck.Test.make ~name:"bucket_index equals the frexp definition" ~count:2000
    QCheck.(oneof [ float; map Int64.float_of_bits int64; oneofl bucket_edges ])
    (fun v -> H.bucket_index v = frexp_bucket_index v)

let test_bucket_edges () =
  List.iter
    (fun v ->
      Alcotest.(check int) (Printf.sprintf "bucket_index %h" v) (frexp_bucket_index v) (H.bucket_index v))
    bucket_edges

let test_histogram_add_allocates_nothing () =
  let h = H.create () in
  (* a list, not a float array, so the loop passes the floats already
     boxed and only [add] could allocate *)
  let vs = List.init 64 (fun i -> ldexp 1.37 (i - 20)) in
  let add = H.add h in
  List.iter add vs;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    List.iter add vs
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 6,400 adds" 0.0 words;
  Alcotest.(check int) "count" 6464 (H.count h)

let test_histogram_basics () =
  let h = H.create () in
  H.add h nan;
  Alcotest.(check int) "nan ignored" 0 (H.count h);
  List.iter (H.add h) [ 1.0; 3.0; 104.0 ];
  let s = H.snapshot h in
  Alcotest.(check int) "count" 3 s.H.n;
  Alcotest.(check (float 1e-9)) "sum" 108.0 s.H.total;
  Alcotest.(check (float 1e-9)) "mean" 36.0 (H.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 s.H.vmin;
  Alcotest.(check (float 1e-9)) "max clamps percentiles" 104.0 (H.percentile s 99.0);
  Alcotest.(check (float 1e-9)) "p50 is a bucket bound" 4.0 (H.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "empty percentile is 0" 0.0 (H.percentile H.empty 50.0)

(* Against the raw-sample recorder it replaces on hot paths: both use
   the nearest-rank convention, so the histogram's answer is the exact
   percentile rounded up to a bucket bound — within one octave. *)
let percentile_vs_stats =
  QCheck.Test.make ~name:"percentiles within one octave of Stats, monotone" ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) (float_range 0.001 1e6))
    (fun samples ->
      let h = H.create () in
      let st = Dsig_simnet.Stats.create () in
      List.iter
        (fun v ->
          H.add h v;
          Dsig_simnet.Stats.add st v)
        samples;
      let s = H.snapshot h in
      let octave p =
        let sp = Dsig_simnet.Stats.percentile st p and hp = H.percentile s p in
        sp <= hp && hp <= 2.0 *. sp
      in
      List.for_all octave [ 10.0; 50.0; 90.0; 99.0; 100.0 ]
      && H.percentile s 50.0 <= H.percentile s 90.0
      && H.percentile s 90.0 <= H.percentile s 99.0)

let snapshot_of_ints ints =
  let h = H.create () in
  List.iter (fun i -> H.add h (float_of_int i)) ints;
  H.snapshot h

let snap_equal a b =
  a.H.counts = b.H.counts && a.H.n = b.H.n && a.H.total = b.H.total && a.H.vmin = b.H.vmin
  && a.H.vmax = b.H.vmax

let merge_associative =
  (* integer-valued samples keep the running sums exact, so structural
     equality is meaningful *)
  QCheck.Test.make ~name:"snapshot merge is associative with empty identity" ~count:200
    QCheck.(triple (list (int_range 0 1000)) (list (int_range 0 1000)) (list (int_range 0 1000)))
    (fun (xs, ys, zs) ->
      let a = snapshot_of_ints xs and b = snapshot_of_ints ys and c = snapshot_of_ints zs in
      snap_equal (H.merge a (H.merge b c)) (H.merge (H.merge a b) c)
      && snap_equal (H.merge a H.empty) a
      && snap_equal (H.merge H.empty a) a)

(* --- registry --- *)

let test_registry () =
  let r = Registry.create () in
  M.Counter.incr ~by:2 (Registry.counter r "ops_total");
  M.Gauge.set (Registry.gauge r "depth") 7.0;
  (* same name resolves to the same cell, whichever domain asks *)
  M.Counter.incr (Domain.join (Domain.spawn (fun () -> Registry.counter r "ops_total")));
  (match Registry.Snapshot.find (Registry.snapshot r) "ops_total" with
  | Some (Registry.Snapshot.Counter 3) -> ()
  | _ -> Alcotest.fail "counter not merged to 3");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Dsig_telemetry.Registry: \"ops_total\" is a counter, not a gauge")
    (fun () -> ignore (Registry.gauge r "ops_total"))

let test_registry_snapshot_merge () =
  let r1 = Registry.create () and r2 = Registry.create () in
  M.Counter.incr ~by:2 (Registry.counter r1 "shared_total");
  M.Counter.incr ~by:5 (Registry.counter r2 "shared_total");
  M.Gauge.set (Registry.gauge r1 "only_left") 1.5;
  let merged = Registry.Snapshot.merge (Registry.snapshot r1) (Registry.snapshot r2) in
  (match Registry.Snapshot.find merged "shared_total" with
  | Some (Registry.Snapshot.Counter 7) -> ()
  | _ -> Alcotest.fail "counters not summed");
  match Registry.Snapshot.find merged "only_left" with
  | Some (Registry.Snapshot.Gauge 1.5) -> ()
  | _ -> Alcotest.fail "one-sided name lost"

(* --- domain-safe cells and probes --- *)

(* N domains hammer one counter, one gauge and one histogram while the
   main domain snapshots the histogram: totals come out exact, and every
   snapshot is internally consistent (bucket counts sum to n). *)
let test_cells_across_domains () =
  let per = 10_000 in
  let c = M.Counter.create () and g = M.Gauge.create () and h = H.create () in
  let hammers =
    List.init stress_domains (fun _ ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              M.Counter.incr c;
              M.Gauge.add g 1.0;
              H.add h (float_of_int i)
            done))
  in
  let torn = ref 0 in
  for _ = 1 to 200 do
    let s = H.snapshot h in
    if Array.fold_left ( + ) 0 s.H.counts <> s.H.n then incr torn
  done;
  List.iter Domain.join hammers;
  let n = stress_domains * per in
  Alcotest.(check int) "no torn histogram snapshot" 0 !torn;
  Alcotest.(check int) "counter exact" n (M.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge adds exact" (float_of_int n) (M.Gauge.value g);
  let s = H.snapshot h in
  Alcotest.(check int) "histogram n exact" n s.H.n;
  Alcotest.(check (float 0.0)) "histogram sum exact"
    (float_of_int (stress_domains * (per * (per - 1) / 2)))
    s.H.total

let test_probe () =
  let r = Registry.create () in
  let owned = ref 0 in
  Registry.probe r ~owner:owned "ops_total" (fun () -> !owned);
  Registry.probe r ~owner:owned "ops_total" (fun () -> 10);
  M.Counter.incr ~by:2 (Registry.counter r "ops_total");
  owned := 5;
  (* read at snapshot time, summed with the other probe and the cell *)
  (match Registry.Snapshot.find (Registry.snapshot r) "ops_total" with
  | Some (Registry.Snapshot.Counter 17) -> ()
  | _ -> Alcotest.fail "probes and cell not summed to 17");
  ignore (Registry.gauge r "depth");
  Alcotest.check_raises "probe on a gauge rejected"
    (Invalid_argument "Dsig_telemetry.Registry: \"depth\" is a gauge, not a counter")
    (fun () -> Registry.probe r ~owner:owned "depth" (fun () -> 1));
  Registry.probe r ~owner:owned "probed_total" (fun () -> 1);
  Alcotest.check_raises "gauge on a probed name rejected"
    (Invalid_argument "Dsig_telemetry.Registry: \"probed_total\" is a counter, not a gauge")
    (fun () -> ignore (Registry.gauge r "probed_total"));
  (* a gauge probe: read at snapshot time, summed with the gauge cell *)
  let level = ref 2.5 in
  Registry.gauge_probe r ~owner:level "level" (fun () -> !level);
  M.Gauge.set (Registry.gauge r "level") 1.0;
  level := 4.0;
  (match Registry.Snapshot.find (Registry.snapshot r) "level" with
  | Some (Registry.Snapshot.Gauge 5.0) -> ()
  | _ -> Alcotest.fail "gauge probe and cell not summed to 5");
  Alcotest.check_raises "gauge probe on a counter rejected"
    (Invalid_argument "Dsig_telemetry.Registry: \"ops_total\" is a counter, not a gauge")
    (fun () -> Registry.gauge_probe r ~owner:level "ops_total" (fun () -> 1.0))

(* A probe lives as long as its owner: once the owner is collected, the
   next snapshot folds a counter probe's last reading into its cell and
   drops a gauge probe. *)
let test_probe_retires_with_owner () =
  let r = Registry.create () in
  let counts = ref 0 in
  let register () =
    (* the owner is not captured by the closures *)
    let owner = ref () in
    Registry.probe r ~owner "ops_total" (fun () -> !counts);
    Registry.gauge_probe r ~owner "level" (fun () -> 3.0)
  in
  register ();
  counts := 7;
  let read () =
    let snap = Registry.snapshot r in
    match (Registry.Snapshot.find snap "ops_total", Registry.Snapshot.find snap "level") with
    | Some (Registry.Snapshot.Counter n), Some (Registry.Snapshot.Gauge g) -> (n, g)
    | _ -> Alcotest.fail "probed names lost"
  in
  Alcotest.(check (pair int (float 0.0))) "live" (7, 3.0) (read ());
  Gc.full_major ();
  Alcotest.(check (pair int (float 0.0))) "retired: count kept, level gone" (7, 0.0) (read ());
  (* the last reading was taken at retirement: later changes to the
     counts it read are not published *)
  counts := 100;
  Alcotest.(check (pair int (float 0.0))) "retired probe no longer read" (7, 0.0) (read ())

(* Verifiers created and dropped on one bundle leave their counts and
   nothing else: after a full major GC, every dropped verifier's probes
   retire into the counter cells, and the bundle keeps fewer than 50
   live words per dropped verifier (each kept ~140 while probes lived
   forever). *)
let test_dropped_verifier_probes () =
  let open Dsig in
  let cfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4) in
  let tel = Tel.create () in
  let options = Options.default |> Options.with_telemetry tel in
  let pki = Pki.create () in
  let churn n =
    for i = 1 to n do
      let v = Verifier.create cfg ~id:i ~pki ~options () in
      match Verifier.check v ~msg:"m" "not a signature" with
      | Verifier.Rejected Verifier.Malformed -> ()
      | _ -> Alcotest.fail "malformed signature not rejected"
    done
  in
  let rejected () =
    match Registry.Snapshot.find (Tel.snapshot tel) "dsig_verifier_rejected_total" with
    | Some (Registry.Snapshot.Counter n) -> n
    | _ -> Alcotest.fail "missing counter dsig_verifier_rejected_total"
  in
  let live_words () =
    Gc.full_major ();
    ignore (Tel.snapshot tel);
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  (* resolve the bundle's cells before measuring *)
  ignore (Sys.opaque_identity (Verifier.create cfg ~id:0 ~pki ~options ()));
  let before = live_words () in
  let n = 2000 in
  churn n;
  Gc.full_major ();
  Alcotest.(check int) "first snapshot" n (rejected ());
  let grown = live_words () - before in
  (* read after the measurement, so the bundle is live through it *)
  Alcotest.(check int) "second snapshot" n (rejected ());
  if grown >= 50 * n then
    Alcotest.failf "%d live words kept for %d dropped verifiers (%d each)" grown n (grown / n)

(* Two verifiers and a signer share one bundle: each published counter
   is the sum of the verifiers' (or the signer's) live stats fields. *)
let test_stats_probes () =
  let open Dsig in
  let cfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4) in
  let tel = Tel.create () in
  let options = Options.default |> Options.with_telemetry tel in
  let rng = Dsig_util.Rng.create 5L in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let signer = Signer.create cfg ~id:0 ~eddsa:sk ~rng ~options ~verifiers:[ 1; 2 ] () in
  let v1 = Verifier.create cfg ~id:1 ~pki ~options () in
  let v2 = Verifier.create cfg ~id:2 ~pki ~options () in
  let s1 = Verifier.stats v1 and s2 = Verifier.stats v2 in
  Signer.background_fill signer;
  (* only v1 hears the announcement: v2 verifies on the slow path *)
  List.iter
    (fun (dest, a) -> if dest = 1 then ignore (Verifier.deliver v1 a))
    (Signer.drain_outbox signer);
  for i = 1 to 6 do
    let msg = Printf.sprintf "probe-%d" i in
    let wire = Signer.sign signer msg in
    ignore (Verifier.verify v1 ~msg wire);
    ignore (Verifier.verify v2 ~msg wire);
    if i mod 3 = 0 then ignore (Verifier.verify v1 ~msg:(msg ^ "!") wire)
  done;
  Alcotest.(check bool) "stats record is live" true
    (s1 == Verifier.stats v1 && s1.Verifier.fast = 6);
  let snap = Tel.snapshot tel in
  let counter name =
    match Registry.Snapshot.find snap name with
    | Some (Registry.Snapshot.Counter n) -> n
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  List.iter
    (fun (name, field) ->
      Alcotest.(check int) name (field s1 + field s2) (counter ("dsig_verifier_" ^ name)))
    Verifier.
      [
        ("fast_total", fun s -> s.fast);
        ("slow_total", fun s -> s.slow);
        ("verifies_total", fun s -> s.fast + s.slow);
        ("rejected_total", fun s -> s.rejected);
        ("eddsa_cache_hits_total", fun s -> s.eddsa_cache_hits);
        ("announcements_total", fun s -> s.announcements);
        ("slow_missing_batch_total", fun s -> s.slow_missing_batch);
        ("slow_cache_miss_total", fun s -> s.slow_cache_miss);
        ("batch_requests_total", fun s -> s.requests_sent);
        ("acks_total", fun s -> s.acks_sent);
        ("eddsa_cache_evictions_total", fun s -> s.eddsa_cache_evictions);
      ];
  Alcotest.(check bool) "both paths exercised" true (s1.Verifier.fast > 0 && s2.Verifier.slow > 0);
  let st = Signer.stats signer in
  List.iter
    (fun (name, v) -> Alcotest.(check int) name v (counter ("dsig_signer_" ^ name)))
    Signer.
      [
        ("signatures_total", st.signatures);
        ("batches_total", st.batches);
        ("sign_waits_total", st.sign_waits);
        ("reannounces_total", st.reannounces);
        ("batch_requests_total", st.requests_served);
      ];
  (* the depth gauge is read from the queues: exact after every pop *)
  Alcotest.(check (float 0.0)) "queue depth gauge" (float_of_int (Signer.queue_depth signer))
    (match Registry.Snapshot.find snap "dsig_signer_queue_depth" with
    | Some (Registry.Snapshot.Gauge g) -> g
    | _ -> Alcotest.fail "missing gauge dsig_signer_queue_depth")

(* --- golden exporter outputs --- *)

(* A fixed snapshot: counter 3, gauge 2.5, histogram {1, 3, 104}.
   Bucket bounds: 1 -> 2^0, 3 -> 2^2, 104 -> 2^7; ranks: p50 = rank 2
   -> bound 4, p90/p99 = rank 3 -> bound 128 clamped to max 104. *)
let golden_registry () =
  let r = Registry.create () in
  M.Counter.incr ~by:3 (Registry.counter r "req_total");
  M.Gauge.set (Registry.gauge r "depth") 2.5;
  let h = Registry.histogram r "lat_us" in
  List.iter (H.add h) [ 1.0; 3.0; 104.0 ];
  r

let test_golden_json () =
  let snap = Registry.snapshot (golden_registry ()) in
  Alcotest.(check string) "json"
    ("{\"counters\":{\"req_total\":3},\"gauges\":{\"depth\":2.5},"
   ^ "\"histograms\":{\"lat_us\":{\"count\":3,\"sum\":108,\"mean\":36,\"min\":1,\"max\":104,"
   ^ "\"p50\":4,\"p90\":104,\"p99\":104,"
   ^ "\"buckets\":[{\"le\":\"1\",\"count\":1},{\"le\":\"4\",\"count\":1},{\"le\":\"128\",\"count\":1}]}}}"
    )
    (Export.json snap)

let test_golden_prometheus () =
  let snap = Registry.snapshot (golden_registry ()) in
  Alcotest.(check string) "prometheus"
    "# HELP depth DSig metric depth\n\
     # TYPE depth gauge\n\
     depth 2.5\n\
     # HELP lat_us DSig metric lat_us\n\
     # TYPE lat_us histogram\n\
     lat_us_bucket{le=\"1\"} 1\n\
     lat_us_bucket{le=\"4\"} 2\n\
     lat_us_bucket{le=\"128\"} 3\n\
     lat_us_bucket{le=\"+Inf\"} 3\n\
     lat_us_sum 108\n\
     lat_us_count 3\n\
     # HELP req_total DSig metric req_total\n\
     # TYPE req_total counter\n\
     req_total 3\n"
    (Export.prometheus snap)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_summary_mentions_metrics () =
  let s = Export.summary (Registry.snapshot (golden_registry ())) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "summary mentions %S" needle)
        true (contains s needle))
    [ "counters:"; "req_total"; "gauges:"; "histograms:"; "lat_us"; "n=3" ]

(* --- snapshot merge over overlapping histograms --- *)

let test_histogram_merge_overlap () =
  let r1 = Registry.create () and r2 = Registry.create () in
  List.iter (H.add (Registry.histogram r1 "lat_us")) [ 1.0; 2.0; 3.0 ];
  List.iter (H.add (Registry.histogram r2 "lat_us")) [ 100.0; 200.0 ];
  let merged = Registry.Snapshot.merge (Registry.snapshot r1) (Registry.snapshot r2) in
  match Registry.Snapshot.find merged "lat_us" with
  | Some (Registry.Snapshot.Histogram s) ->
      Alcotest.(check int) "count sums" 5 s.H.n;
      Alcotest.(check (float 1e-9)) "sum sums" 306.0 s.H.total;
      Alcotest.(check (float 1e-9)) "min is global" 1.0 s.H.vmin;
      Alcotest.(check (float 1e-9)) "max is global" 200.0 s.H.vmax;
      (* merged percentiles see both sides: the p99 must land in the
         right-hand registry's octave *)
      Alcotest.(check bool) "p99 from the slow side" true (H.percentile s 99.0 >= 200.0)
  | _ -> Alcotest.fail "overlapping histogram lost"

(* --- prometheus name sanitization (regression) --- *)

let test_prometheus_sanitize () =
  let r = Registry.create () in
  M.Counter.incr ~by:1 (Registry.counter r "1bad.name");
  M.Counter.incr ~by:2 (Registry.counter r "a-b");
  M.Counter.incr ~by:3 (Registry.counter r "a.b");
  let snap = Registry.snapshot r in
  let expected =
    "# HELP _1bad_name DSig metric 1bad.name\n\
     # TYPE _1bad_name counter\n\
     _1bad_name 1\n\
     # HELP a_b DSig metric a-b\n\
     # TYPE a_b counter\n\
     a_b 2\n\
     # HELP a_b_2 DSig metric a.b\n\
     # TYPE a_b_2 counter\n\
     a_b_2 3\n"
  in
  Alcotest.(check string) "sanitized + deduped" expected (Export.prometheus snap);
  (* deterministic: a second export of the same snapshot is identical *)
  Alcotest.(check string) "stable across exports" expected (Export.prometheus snap)

(* --- trace context --- *)

module T = Dsig_telemetry.Trace_ctx

let test_trace_id_packing () =
  let id = T.id ~signer:5 ~batch_id:70_000L ~key_index:9 in
  Alcotest.(check int) "signer unpacks" 5 (T.signer_of_id id);
  Alcotest.(check int64) "batch unpacks" 70_000L (T.batch_of_id id);
  Alcotest.(check int) "key unpacks" 9 (T.key_of_id id);
  (* truncation: signer to 16 bits, batch to 32 *)
  Alcotest.(check int) "signer truncated" 1
    (T.signer_of_id (T.id ~signer:0x1_0001 ~batch_id:0L ~key_index:0));
  Alcotest.(check int64) "batch truncated" 1L
    (T.batch_of_id (T.id ~signer:0 ~batch_id:0x1_0000_0001L ~key_index:0));
  (* the batch key joins every signature of a batch to one admit event *)
  Alcotest.(check int64) "batch key of id" (T.batch_key ~signer:5 ~batch_id:70_000L)
    (T.batch_key_of_id id);
  Alcotest.(check int) "batch key sentinel" 0xFFFF (T.key_of_id (T.batch_key_of_id id))

let test_trace_ctx_codec () =
  let ctx = T.make ~signer:2 ~batch_id:7L ~key_index:1 ~origin:2 ~birth_us:42.25 in
  Alcotest.(check int) "wire size" T.wire_bytes (String.length (T.encode ctx));
  (match T.decode (T.encode ctx) 0 with
  | Some c ->
      Alcotest.(check int64) "id" ctx.T.trace_id c.T.trace_id;
      Alcotest.(check int) "origin" 2 c.T.origin;
      Alcotest.(check (float 1e-9)) "birth" 42.25 c.T.birth_us
  | None -> Alcotest.fail "roundtrip");
  (* total on truncation at every length *)
  let enc = T.encode ctx in
  for len = 0 to T.wire_bytes - 1 do
    match T.decode (String.sub enc 0 len) 0 with
    | None -> ()
    | Some _ -> Alcotest.failf "decoded %d-byte prefix" len
  done;
  (* NaN birth stamp rejected *)
  let nan_ctx = T.make ~signer:0 ~batch_id:0L ~key_index:0 ~origin:0 ~birth_us:Float.nan in
  match T.decode (T.encode nan_ctx) 0 with
  | None -> ()
  | Some _ -> Alcotest.fail "NaN birth accepted"

let trace_ctx_fuzz =
  let open QCheck in
  [
    Test.make ~name:"trace ctx decode total on junk" ~count:500 (string_of_size Gen.(0 -- 40))
      (fun junk ->
        match T.decode junk 0 with Some _ | None -> true);
    Test.make ~name:"trace ctx roundtrip" ~count:300
      (quad (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0xFFFF) (float_range 0.0 1e12))
      (fun (signer, key_index, origin, birth_us) ->
        let ctx =
          T.make ~signer ~batch_id:(Int64.of_int (signer * 7)) ~key_index ~origin ~birth_us
        in
        match T.decode (T.encode ctx) 0 with
        | Some c -> c = ctx
        | None -> false);
  ]

(* --- lifecycle aggregator --- *)

module L = Dsig_telemetry.Lifecycle

(* Two domains enable one aggregator at once: its counts are published
   by probes, which sum across bindings, so a doubly resolved aggregator
   would report every span twice. *)
let test_lifecycle_enable_race () =
  let n = 100 in
  for _ = 1 to 200 do
    let registry = Registry.create () in
    let lc = L.create ~registry () in
    let ready = Atomic.make 0 in
    let racers =
      List.init 2 (fun _ ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while Atomic.get ready < 2 do
                Domain.cpu_relax ()
              done;
              L.enable lc))
    in
    List.iter Domain.join racers;
    for i = 1 to n do
      L.sign lc ~trace_id:(Int64.of_int i) ~origin:0 ~birth_us:0.0 ~dur_us:1.0
    done;
    Alcotest.(check int) "started" n (L.started lc);
    match Registry.Snapshot.find (Registry.snapshot registry) "dsig_lifecycle_started_total" with
    | Some (Registry.Snapshot.Counter c) -> Alcotest.(check int) "registry = started" n c
    | _ -> Alcotest.fail "dsig_lifecycle_started_total not published"
  done

let test_lifecycle_full_requires_admit_first () =
  let registry = Registry.create () in
  let lc = L.create ~registry () in
  (* disabled: events are no-ops *)
  L.sign lc ~trace_id:1L ~origin:0 ~birth_us:0.0 ~dur_us:1.0;
  Alcotest.(check int) "disabled records nothing" 0 (L.started lc);
  L.enable lc;
  let id1 = T.id ~signer:3 ~batch_id:8L ~key_index:0 in
  let id2 = T.id ~signer:3 ~batch_id:8L ~key_index:1 in
  L.sign lc ~trace_id:id1 ~origin:3 ~birth_us:10.0 ~dur_us:2.0;
  L.sign lc ~trace_id:id2 ~origin:3 ~birth_us:11.0 ~dur_us:2.0;
  (* id1 verifies before the batch admit: completed but not full *)
  L.verify lc ~trace_id:id1 ~at_us:20.0 ~dur_us:1.0 ();
  Alcotest.(check int) "completed without admit" 1 (L.completed lc);
  Alcotest.(check int) "not full without admit" 0 (L.full lc);
  (* one admit joins every remaining signature of the batch *)
  L.admit lc ~signer:3 ~batch_id:8L ~latency_us:5.0;
  L.verify lc ~trace_id:id2 ~at_us:25.0 ~dur_us:1.0 ();
  Alcotest.(check int) "full after admit" 1 (L.full lc);
  Alcotest.(check int) "both completed" 2 (L.completed lc);
  Alcotest.(check (option (float 1e-9))) "admit latency joined" (Some 5.0)
    (L.announce_of lc ~signer:3 ~batch_id:8L);
  (* wire-propagated context: no local sign record, birth from the ctx *)
  let id3 = T.id ~signer:9 ~batch_id:1L ~key_index:4 in
  L.verify lc ~trace_id:id3 ~origin:9 ~birth_us:100.0 ~at_us:130.0 ~dur_us:1.0 ();
  Alcotest.(check int) "wire ctx closes e2e" 3 (L.completed lc);
  (match List.rev (L.spans lc) with
  | sp :: _ ->
      Alcotest.(check int) "wire ctx origin" 9 sp.L.sp_origin;
      Alcotest.(check (float 1e-9)) "wire ctx e2e" 30.0 sp.L.sp_e2e_us
  | [] -> Alcotest.fail "no spans");
  (* SLO: all e2e spans are well under a millisecond here *)
  Alcotest.(check bool) "within 1ms" true (L.within ~budget_us:1_000.0 lc);
  Alcotest.(check bool) "not within 1us" false (L.within ~budget_us:1.0 lc)

let test_lifecycle_fifo_eviction () =
  let registry = Registry.create () in
  let lc = L.create ~registry ~max_pending:2 ~span_capacity:2 () in
  L.enable lc;
  let id i = T.id ~signer:1 ~batch_id:1L ~key_index:i in
  L.sign lc ~trace_id:(id 0) ~origin:1 ~birth_us:0.0 ~dur_us:1.0;
  L.sign lc ~trace_id:(id 1) ~origin:1 ~birth_us:1.0 ~dur_us:1.0;
  L.sign lc ~trace_id:(id 2) ~origin:1 ~birth_us:2.0 ~dur_us:1.0;
  Alcotest.(check int) "all sign events counted" 3 (L.started lc);
  (* the oldest open record was evicted: its verify cannot complete
     end-to-end (no birth stamp survives) *)
  L.verify lc ~trace_id:(id 0) ~at_us:10.0 ~dur_us:1.0 ();
  Alcotest.(check int) "evicted record cannot complete" 0 (L.completed lc);
  L.verify lc ~trace_id:(id 1) ~at_us:11.0 ~dur_us:1.0 ();
  L.verify lc ~trace_id:(id 2) ~at_us:12.0 ~dur_us:1.0 ();
  Alcotest.(check int) "survivors complete" 2 (L.completed lc);
  (* span ring bounded at capacity, newest retained *)
  Alcotest.(check int) "span ring bounded" 2 (List.length (L.spans lc))

(* Regression: an NTP step used to feed negative durations into the
   lifecycle histograms (the default clock was gettimeofday).
   Durations must now be clamped to zero and counted, and percentiles
   must stay non-negative. *)
let test_lifecycle_negative_span_clamped () =
  let registry = Registry.create () in
  let lc = L.create ~registry () in
  L.enable lc;
  let id = T.id ~signer:1 ~batch_id:1L ~key_index:0 in
  (* a wall clock that stepped backward between begin and end *)
  L.sign lc ~trace_id:id ~origin:1 ~birth_us:1_000.0 ~dur_us:(-250.0);
  L.admit lc ~signer:1 ~batch_id:1L ~latency_us:(-30.0);
  (* end stamp before the birth stamp: negative e2e *)
  L.verify lc ~trace_id:id ~at_us:400.0 ~dur_us:(-5.0) ();
  Alcotest.(check int) "span still completes" 1 (L.completed lc);
  List.iter
    (fun plane ->
      let p99 = L.percentile lc plane 99.0 in
      if not (p99 >= 0.0) then
        Alcotest.failf "%s p99 went negative: %f" (L.plane_name plane) p99)
    [ L.Sign; L.Announce; L.Verify; L.End_to_end ];
  (match List.rev (L.spans lc) with
  | sp :: _ ->
      Alcotest.(check (float 1e-9)) "e2e clamped in span" 0.0 sp.L.sp_e2e_us;
      Alcotest.(check (float 1e-9)) "verify clamped in span" 0.0 sp.L.sp_verify_us
  | [] -> Alcotest.fail "no spans");
  let snap = Registry.snapshot registry in
  let clamped =
    match Registry.Snapshot.find snap "dsig_lifecycle_negative_clamped_total" with
    | Some (Registry.Snapshot.Counter n) -> Some n
    | _ -> None
  in
  Alcotest.(check (option int)) "all four negatives counted" (Some 4) clamped

(* The default telemetry clock must be monotonic now: two reads never
   go backward even if the wall clock is stepped (which we cannot force
   here, but monotonicity across many samples is the contract). *)
let test_mono_clock_is_monotonic () =
  let clock = Dsig_telemetry.Tracer.mono_clock_us in
  let prev = ref (clock ()) in
  for _ = 1 to 10_000 do
    let now = clock () in
    if now < !prev then Alcotest.failf "monotonic clock went backward: %f < %f" now !prev;
    prev := now
  done;
  (* and it is the default: a fresh bundle's reads never go backward *)
  let tel = Tel.create () in
  let t0 = Tel.now tel in
  let t1 = Tel.now tel in
  Alcotest.(check bool) "bundle clock non-decreasing" true (t1 >= t0)

(* [set_clock] repoints every duration a bundle's components record:
   under a constant clock, a sign and a verify (slow, then fast) take
   0 us in the signer's and the verifier's histograms. *)
let test_set_clock_constant () =
  let open Dsig in
  let cfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4) in
  let tel = Tel.create () in
  Tel.set_clock tel (fun () -> 42.0);
  Alcotest.(check (float 0.0)) "now reads the new clock" 42.0 (Tel.now tel);
  let options = Options.default |> Options.with_telemetry tel in
  let rng = Dsig_util.Rng.create 9L in
  let sk, pk = Dsig_ed25519.Eddsa.generate rng in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let signer = Signer.create cfg ~id:0 ~eddsa:sk ~rng ~options ~verifiers:[ 1 ] () in
  let verifier = Verifier.create cfg ~id:1 ~pki ~options () in
  Signer.background_fill signer;
  let wire = Signer.sign signer "constant" in
  Alcotest.(check bool) "slow verify" true
    (Verifier.check verifier ~msg:"constant" wire = Verifier.Slow);
  List.iter (fun (_, a) -> ignore (Verifier.deliver verifier a)) (Signer.drain_outbox signer);
  Alcotest.(check bool) "fast verify" true
    (Verifier.check verifier ~msg:"constant" wire = Verifier.Fast);
  let snap = Tel.snapshot tel in
  List.iter
    (fun name ->
      match Registry.Snapshot.find snap name with
      | Some (Registry.Snapshot.Histogram h) ->
          Alcotest.(check int) (name ^ " samples") 1 h.H.n;
          Alcotest.(check (float 0.0)) (name ^ " sum") 0.0 h.H.total
      | _ -> Alcotest.fail ("missing histogram " ^ name))
    [
      "dsig_signer_sign_us";
      "dsig_signer_batch_gen_us";
      "dsig_verifier_slow_us";
      "dsig_verifier_fast_us";
      "dsig_verifier_deliver_us";
    ]

let () =
  Alcotest.run "telemetry"
    [
      ( "metric",
        [
          Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
          Alcotest.test_case "bucket bounds" `Quick test_bucket_bounds;
          Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
          QCheck_alcotest.to_alcotest ~long:false bucket_invariant;
          QCheck_alcotest.to_alcotest ~long:false bucket_vs_frexp;
          Alcotest.test_case "bucket edges match frexp" `Quick test_bucket_edges;
          Alcotest.test_case "histogram add allocates nothing" `Quick
            test_histogram_add_allocates_nothing;
          QCheck_alcotest.to_alcotest ~long:false percentile_vs_stats;
          QCheck_alcotest.to_alcotest ~long:false merge_associative;
        ] );
      ( "registry",
        [
          Alcotest.test_case "per-name cells and kind check" `Quick test_registry;
          Alcotest.test_case "snapshot merge" `Quick test_registry_snapshot_merge;
          Alcotest.test_case "merge overlapping histograms" `Quick test_histogram_merge_overlap;
          Alcotest.test_case "probes" `Quick test_probe;
          Alcotest.test_case "probes retire with their owner" `Quick test_probe_retires_with_owner;
          Alcotest.test_case "stats published as probes" `Quick test_stats_probes;
          Alcotest.test_case "dropped verifiers' probes retire" `Quick test_dropped_verifier_probes;
        ] );
      (* suite names stay short: Alcotest pads them to the longest, and
         that width comes out of the shown test names *)
      ( "domains",
        [
          Alcotest.test_case "cells exact across domains" `Quick test_cells_across_domains;
          Alcotest.test_case "lifecycle enable race" `Quick test_lifecycle_enable_race;
        ] );
      ( "export",
        [
          Alcotest.test_case "golden json" `Quick test_golden_json;
          Alcotest.test_case "golden prometheus" `Quick test_golden_prometheus;
          Alcotest.test_case "name sanitization" `Quick test_prometheus_sanitize;
          Alcotest.test_case "summary" `Quick test_summary_mentions_metrics;
        ] );
      ( "trace-ctx",
        [
          Alcotest.test_case "id packing" `Quick test_trace_id_packing;
          Alcotest.test_case "codec" `Quick test_trace_ctx_codec;
        ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) trace_ctx_fuzz );
      ( "lifecycle",
        [
          Alcotest.test_case "full requires admit before verify" `Quick
            test_lifecycle_full_requires_admit_first;
          Alcotest.test_case "pending tables FIFO-evict" `Quick test_lifecycle_fifo_eviction;
          Alcotest.test_case "negative spans clamped and counted" `Quick
            test_lifecycle_negative_span_clamped;
          Alcotest.test_case "default clock is monotonic" `Quick test_mono_clock_is_monotonic;
        ] );
      ("clock", [ Alcotest.test_case "set_clock drives durations" `Quick test_set_clock_constant ]);
    ]
