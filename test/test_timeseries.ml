(* Tests for the time-series observability plane (lib/timeseries):
   ring-buffered series with Prometheus-style counter-reset adjustment,
   the registry sampler, multiwindow burn-rate alerting, and the
   @smoke gate table that smoke_check judges the bench snapshot by. *)

module Series = Dsig_timeseries.Series
module Sampler = Dsig_timeseries.Sampler
module Alert = Dsig_timeseries.Alert
module Trajectory = Dsig_timeseries.Trajectory
module Json_lite = Dsig_timeseries.Json_lite
module Tel = Dsig_telemetry.Telemetry
module Registry = Dsig_telemetry.Registry
module Metric = Dsig_telemetry.Metric

let feq = Alcotest.(check (float 1e-9))
let feq_loose = Alcotest.(check (float 1e-6))

(* --- Series: ring buffer --- *)

let test_series_push_and_wrap () =
  let s = Series.create ~capacity:4 ~name:"g" Series.Gauge in
  Alcotest.(check int) "empty" 0 (Series.length s);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "no last" None (Series.last s);
  for i = 1 to 6 do
    Series.push s ~t_us:(float_of_int (i * 100)) (float_of_int i)
  done;
  Alcotest.(check int) "capacity bounds length" 4 (Series.length s);
  Alcotest.(check int) "capacity" 4 (Series.capacity s);
  (* oldest two points (1,2) were overwritten *)
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "last four points, oldest first"
    [ (300.0, 3.0); (400.0, 4.0); (500.0, 5.0); (600.0, 6.0) ]
    (Series.points s);
  feq "get 0 is oldest" 3.0 (snd (Series.get s 0));
  feq "get 3 is newest" 6.0 (snd (Series.get s 3));
  Alcotest.check_raises "get out of range" (Invalid_argument "Series.get: index out of range")
    (fun () -> ignore (Series.get s 4))

let test_series_rejects_nonfinite () =
  let s = Series.create ~name:"g" Series.Gauge in
  Series.push s ~t_us:1.0 Float.nan;
  Series.push s ~t_us:2.0 Float.infinity;
  Series.push s ~t_us:3.0 Float.neg_infinity;
  Alcotest.(check int) "non-finite samples dropped" 0 (Series.length s);
  Series.push s ~t_us:4.0 1.5;
  Alcotest.(check int) "finite sample lands" 1 (Series.length s)

let test_series_counter_reset () =
  let s = Series.create ~name:"c" Series.Counter in
  List.iter
    (fun (t, v) -> Series.push s ~t_us:t v)
    [ (0.0, 0.0); (100.0, 5.0); (200.0, 10.0); (300.0, 2.0); (400.0, 7.0) ];
  (* the reset at t=300 (10 -> 2) folds the lost height into the
     offset: stored series is 0,5,10,12,17 — monotone *)
  Alcotest.(check (list (float 0.0)))
    "stored series is monotone across the reset"
    [ 0.0; 5.0; 10.0; 12.0; 17.0 ]
    (List.map snd (Series.points s));
  feq "delta across the reset counts only real increase" 17.0
    (Series.delta_over s ~from_us:0.0 ~until_us:400.0);
  feq "delta over the reset step itself" 2.0 (Series.delta_over s ~from_us:200.0 ~until_us:300.0)

let test_series_windows () =
  let s = Series.create ~name:"c" Series.Counter in
  List.iter
    (fun (t, v) -> Series.push s ~t_us:t v)
    [ (0.0, 0.0); (1000.0, 10.0); (2000.0, 30.0); (3000.0, 30.0) ];
  feq "value_at steps" 10.0 (Option.get (Series.value_at s ~at_us:1500.0));
  Alcotest.(check (option (float 0.0)))
    "value_at before history" None
    (Series.value_at s ~at_us:(-1.0));
  feq "delta mid-window" 20.0 (Series.delta_over s ~from_us:1000.0 ~until_us:2000.0);
  feq "partial window answers from earliest retained point" 30.0
    (Series.delta_over s ~from_us:(-5000.0) ~until_us:3000.0);
  (* 20 increments over the [1000,2000] us window = 20 per ms = 20000/s *)
  feq_loose "rate per second" 20000.0 (Series.rate_over s ~window_us:1000.0 ~now_us:2000.0);
  feq "flat tail has zero rate" 0.0 (Series.rate_over s ~window_us:1000.0 ~now_us:3000.0);
  let g = Series.create ~name:"g" Series.Gauge in
  List.iter (fun (t, v) -> Series.push g ~t_us:t v) [ (0.0, 1.0); (100.0, 3.0); (200.0, 2.0) ];
  feq "window_avg" 2.0 (Option.get (Series.window_avg g ~from_us:0.0 ~until_us:200.0));
  feq "window_min" 1.0 (Option.get (Series.window_min g ~from_us:0.0 ~until_us:200.0));
  feq "window_max" 3.0 (Option.get (Series.window_max g ~from_us:0.0 ~until_us:200.0));
  Alcotest.(check (option (float 0.0)))
    "empty window" None
    (Series.window_avg g ~from_us:300.0 ~until_us:400.0)

(* qcheck: a counter fed arbitrary increments and restarts (raw value
   re-zeroed) never yields a negative windowed delta or rate, and the
   ring never exceeds its capacity *)
let counter_never_negative =
  QCheck.Test.make ~name:"counter deltas/rates never negative across resets" ~count:300
    QCheck.(
      pair (int_range 1 16)
        (list_of_size Gen.(1 -- 80) (pair bool (int_range 0 1000))))
    (fun (capacity, ops) ->
      let s = Series.create ~capacity ~name:"c" Series.Counter in
      let raw = ref 0 in
      List.iteri
        (fun i (reset, incr) ->
          if reset then raw := 0;
          raw := !raw + incr;
          Series.push s ~t_us:(float_of_int (i * 100)) (float_of_int !raw))
        ops;
      let n = List.length ops in
      let ok_len = Series.length s <= capacity in
      let ok_monotone =
        let pts = Series.points s in
        List.for_all2
          (fun (_, a) (_, b) -> b >= a)
          (List.filteri (fun i _ -> i < List.length pts - 1) pts)
          (List.tl pts)
        || pts = []
      in
      let ok_windows = ref true in
      for from = 0 to n - 1 do
        let from_us = float_of_int (from * 100) in
        let until_us = float_of_int ((n - 1) * 100) in
        if Series.delta_over s ~from_us ~until_us < 0.0 then ok_windows := false;
        if Series.rate_over s ~window_us:(until_us -. from_us +. 1.0) ~now_us:until_us < 0.0
        then ok_windows := false
      done;
      ok_len && ok_monotone && !ok_windows)

let gauge_capacity_invariant =
  QCheck.Test.make ~name:"gauge ring keeps the newest points, never over capacity" ~count:300
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(0 -- 60) (float_range (-1e6) 1e6)))
    (fun (capacity, vs) ->
      let s = Series.create ~capacity ~name:"g" Series.Gauge in
      List.iteri (fun i v -> Series.push s ~t_us:(float_of_int i) v) vs;
      let expected =
        let n = List.length vs in
        List.filteri (fun i _ -> i >= n - capacity) vs
      in
      Series.length s <= capacity && List.map snd (Series.points s) = expected)

(* --- Series: tiered downsampling (§15) --- *)

let test_series_compaction_gauge () =
  let s = Series.create ~capacity:4 ~compact_every:2 ~compact_capacity:8 ~name:"g" Series.Gauge in
  for i = 1 to 12 do
    Series.push s ~t_us:(float_of_int (i * 100)) (float_of_int i)
  done;
  (* raw ring holds 9..12; the 8 evicted points closed 4 buckets *)
  Alcotest.(check int) "raw tier" 4 (Series.length s);
  Alcotest.(check int) "closed buckets" 4 (Series.compacted_length s);
  (match Series.compacted s with
  | b :: _ ->
      feq "bucket t_first" 100.0 b.Series.b_t_first;
      feq "bucket t_last" 200.0 b.Series.b_t_last;
      feq "bucket vfirst" 1.0 b.Series.b_vfirst;
      feq "bucket vlast" 2.0 b.Series.b_vlast;
      feq "bucket min" 1.0 b.Series.b_min;
      feq "bucket max" 2.0 b.Series.b_max;
      feq "bucket sum" 3.0 b.Series.b_sum;
      Alcotest.(check int) "bucket n" 2 b.Series.b_n
  | [] -> Alcotest.fail "expected a closed bucket");
  (* step reads older than the raw ring fall through to the buckets,
     answering at bucket granularity (vlast of the covering bucket) *)
  feq "value_at from compacted tier" 4.0 (Option.get (Series.value_at s ~at_us:350.0));
  Alcotest.(check (option (float 0.0)))
    "before all retained history" None
    (Series.value_at s ~at_us:50.0);
  (* windowed aggregates combine both tiers; bucket inclusion is
     conservative (whole bucket counts once its span intersects), so
     the min can only undershoot the true windowed min *)
  feq "window_min spans tiers" 3.0 (Option.get (Series.window_min s ~from_us:350.0 ~until_us:950.0));
  feq "window_max spans tiers" 9.0 (Option.get (Series.window_max s ~from_us:350.0 ~until_us:950.0));
  (* the 13th push evicts point 9 into a *pending* (unclosed) bucket,
     which queries must still see *)
  Series.push s ~t_us:1300.0 13.0;
  Alcotest.(check int) "pending bucket not counted as closed" 4 (Series.compacted_length s);
  feq "pending bucket answers value_at" 9.0 (Option.get (Series.value_at s ~at_us:950.0))

let test_series_compaction_counter () =
  let s = Series.create ~capacity:2 ~compact_every:2 ~compact_capacity:4 ~name:"c" Series.Counter in
  List.iter
    (fun (t, v) -> Series.push s ~t_us:t v)
    [ (0.0, 0.0); (100.0, 10.0); (200.0, 15.0); (300.0, 5.0); (400.0, 8.0) ];
  (* reset at t=300 (15 -> 5): adjusted series 0,10,15,20,23; raw ring
     holds (300,20),(400,23); evicted 0,10 closed a bucket and 15 is
     pending — the reset offset survives eviction *)
  Alcotest.(check int) "one closed bucket" 1 (Series.compacted_length s);
  let b = List.hd (Series.compacted s) in
  feq "bucket carries adjusted values" 10.0 b.Series.b_vlast;
  (* a window opening before all retained history answers from the
     earliest bucket point: full 0 -> 23 increase, reset included *)
  feq "delta across both tiers and the reset" 23.0
    (Series.delta_over s ~from_us:(-100.0) ~until_us:400.0);
  (* opening inside the pending bucket reads its vlast (15): 23-15 *)
  feq "delta from the pending bucket" 8.0 (Series.delta_over s ~from_us:250.0 ~until_us:400.0)

(* qcheck: the tiered series' windowed aggregates bound the true
   aggregates computed over the full (never-evicted) history — min can
   only undershoot, max only overshoot, avg stays inside the tiered
   [min,max] envelope *)
let compaction_bounds_raw =
  QCheck.Test.make ~name:"compacted windowed aggregates bound the raw history" ~count:300
    QCheck.(
      pair (int_range 1 6) (list_of_size Gen.(1 -- 80) (float_range (-1000.0) 1000.0)))
    (fun (compact_every, vs) ->
      let tiered =
        Series.create ~capacity:4 ~compact_every ~compact_capacity:128 ~name:"t" Series.Gauge
      in
      let full =
        Series.create ~capacity:(List.length vs) ~compact_every:0 ~name:"f" Series.Gauge
      in
      List.iteri
        (fun i v ->
          let t_us = float_of_int ((i + 1) * 100) in
          Series.push tiered ~t_us v;
          Series.push full ~t_us v)
        vs;
      let n = List.length vs in
      let check_window ~from_us ~until_us =
        match
          ( Series.window_min full ~from_us ~until_us,
            Series.window_max full ~from_us ~until_us )
        with
        | Some true_min, Some true_max -> (
            match
              ( Series.window_min tiered ~from_us ~until_us,
                Series.window_max tiered ~from_us ~until_us,
                Series.window_avg tiered ~from_us ~until_us )
            with
            | Some tmin, Some tmax, Some tavg ->
                tmin <= true_min +. 1e-9
                && tmax >= true_max -. 1e-9
                && tavg >= tmin -. 1e-9
                && tavg <= tmax +. 1e-9
            | _ ->
                (* raw points exist in the window, so the tiered series
                   must answer from one tier or the other *)
                false)
        | _ -> true
      in
      check_window ~from_us:0.0 ~until_us:(float_of_int (n * 100))
      && check_window ~from_us:(float_of_int (n / 3 * 100))
           ~until_us:(float_of_int ((2 * n / 3) * 100))
      && check_window ~from_us:(float_of_int (n * 50)) ~until_us:(float_of_int (n * 100)))

(* --- Sampler --- *)

let test_sampler_folds_registry () =
  let reg = Registry.create () in
  let c = Registry.counter reg "reqs_total" in
  let g = Registry.gauge reg "queue_depth" in
  let h = Registry.histogram reg "lat_us" in
  let sampler = Sampler.create ~capacity:64 reg in
  Metric.Counter.incr ~by:3 c;
  Metric.Gauge.set g 7.0;
  Metric.Histogram.add h 100.0;
  Metric.Histogram.add h 200.0;
  Alcotest.(check bool) "tick records" true (Sampler.sample sampler ~now_us:1000.0);
  Metric.Counter.incr ~by:2 c;
  Alcotest.(check bool) "second tick" true (Sampler.sample sampler ~now_us:2000.0);
  Alcotest.(check int) "two recorded ticks" 2 (Sampler.samples sampler);
  let series name = Option.get (Sampler.find sampler name) in
  Alcotest.(check bool)
    "counter series is a counter" true
    (Series.kind (series "reqs_total") = Series.Counter);
  feq "counter folds to its running value" 5.0 (snd (Option.get (Series.last (series "reqs_total"))));
  feq "gauge last value" 7.0 (snd (Option.get (Series.last (series "queue_depth"))));
  (* histogram derives :count (counter) and :p50/:p99 (gauges) *)
  Alcotest.(check bool)
    "histogram count series is a counter" true
    (Series.kind (series "lat_us:count") = Series.Counter);
  feq "histogram count" 2.0 (snd (Option.get (Series.last (series "lat_us:count"))));
  Alcotest.(check bool)
    "p50 <= p99" true
    (snd (Option.get (Series.last (series "lat_us:p50")))
    <= snd (Option.get (Series.last (series "lat_us:p99"))));
  Alcotest.(check bool) "all is sorted" true
    (let names = List.map Series.name (Sampler.all sampler) in
     names = List.sort compare names)

(* A registry probe reaches the timeline like any counter: read once
   per recorded tick, never on a throttled one. *)
let test_sampler_throttle_and_probe () =
  let reg = Registry.create () in
  let sampler = Sampler.create ~interval_us:100.0 reg in
  let calls = ref 0 in
  Registry.probe reg ~owner:calls "probe_total" (fun () ->
      incr calls;
      !calls);
  Metric.Gauge.set (Registry.gauge reg "depth") 2.0;
  Alcotest.(check bool) "tick 0 records" true (Sampler.sample sampler ~now_us:0.0);
  Alcotest.(check bool) "tick 50 throttled" false (Sampler.sample sampler ~now_us:50.0);
  Alcotest.(check int) "throttled tick skips probes" 1 !calls;
  Alcotest.(check bool) "tick 100 records" true (Sampler.sample sampler ~now_us:100.0);
  Alcotest.(check bool) "tick 250 records" true (Sampler.sample sampler ~now_us:250.0);
  Alcotest.(check int) "three recorded ticks" 3 (Sampler.samples sampler);
  let points name = Series.points (Option.get (Sampler.find sampler name)) in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "probe read once per recorded tick"
    [ (0.0, 1.0); (100.0, 2.0); (250.0, 3.0) ]
    (points "probe_total");
  Alcotest.(check int) "gauge holds all 3" 3 (List.length (points "depth"))

let test_sampler_json_roundtrip () =
  let reg = Registry.create () in
  let c = Registry.counter reg "c_total" in
  let sampler = Sampler.create reg in
  Metric.Gauge.set (Registry.gauge reg "g \"quoted\"\n") 42.5;
  Metric.Counter.incr ~by:9 c;
  ignore (Sampler.sample sampler ~now_us:1000.0);
  ignore (Sampler.sample sampler ~now_us:2000.0);
  let js = Sampler.to_json sampler in
  match Sampler.of_json js with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok rows ->
      let find name = List.find (fun (n, _, _) -> n = name) rows in
      let _, kind, points = find "c_total" in
      Alcotest.(check bool) "kind survives" true (kind = Series.Counter);
      Alcotest.(check (list (pair (float 0.0) (float 0.0))))
        "points survive"
        [ (1000.0, 9.0); (2000.0, 9.0) ]
        points;
      let _, _, qpoints = find "g \"quoted\"\n" in
      feq "escaped name and value survive" 42.5 (snd (List.hd qpoints))

let test_json_lite () =
  (match Json_lite.parse {|{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x\n\"y\""}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      let a = Option.get (Json_lite.member "a" j) in
      Alcotest.(check (list (float 0.0)))
        "numbers" [ 1.0; 2.5; -300.0 ]
        (List.map (fun v -> Option.get (Json_lite.to_float v)) (Option.get (Json_lite.to_list a)));
      let b = Option.get (Json_lite.member "b" j) in
      Alcotest.(check bool) "null member" true (Json_lite.member "c" b = Some Json_lite.Null);
      let e = Option.get (Json_lite.member "e" j) in
      Alcotest.(check string) "escapes decode" "x\n\"y\"" (Option.get (Json_lite.to_string e)));
  Alcotest.(check bool) "trailing garbage rejected" true
    (Result.is_error (Json_lite.parse "{} junk"));
  Alcotest.(check bool) "truncated rejected" true (Result.is_error (Json_lite.parse {|{"a": [1,|}));
  Alcotest.(check bool) "bare value parses" true (Json_lite.parse "  -3.5e1 " = Ok (Json_lite.Num (-35.0)))

(* --- Alert: burn-rate fire/resolve --- *)

let test_alert_burn_rate () =
  let tel = Tel.create () in
  let reg = tel.Tel.registry in
  let bad = Registry.counter reg "bad_total" in
  let total = Registry.counter reg "all_total" in
  let sampler = Sampler.create reg in
  let alerts =
    Alert.create ~telemetry:tel sampler
      [
        Alert.rule ~name:"slow_share"
          ~fast:{ Alert.window_us = 1000.0; max_burn = 1.0 }
          ~slow:{ Alert.window_us = 3000.0; max_burn = 1.0 }
          (Alert.Burn_rate { bad = "bad_total"; total = "all_total"; budget = 0.5 });
      ]
  in
  let tick now_us = ignore (Sampler.sample sampler ~now_us); Alert.step alerts ~now_us in
  Alcotest.(check bool) "idle rule is Ok" true (tick 0.0 = [] && Alert.state alerts "slow_share" = Some `Ok);
  (* every request bad: burn = (10/10)/0.5 = 2 > 1 in both windows *)
  Metric.Counter.incr ~by:10 bad;
  Metric.Counter.incr ~by:10 total;
  Alcotest.(check bool) "fires when both windows exceed" true
    (tick 1000.0 = [ ("slow_share", Alert.Fired) ]);
  (match Alert.state alerts "slow_share" with
  | Some (`Firing since) -> feq "firing since the violating tick" 1000.0 since
  | _ -> Alcotest.fail "expected Firing");
  Alcotest.(check (list string)) "firing list" [ "slow_share" ] (Alert.firing alerts);
  (* clean traffic: fast window clears even though the slow window
     still remembers the incident *)
  Metric.Counter.incr ~by:10 total;
  Alcotest.(check bool) "resolves when the fast window clears" true
    (tick 2000.0 = [ ("slow_share", Alert.Resolved) ]);
  Alcotest.(check bool) "state back to Ok" true (Alert.state alerts "slow_share" = Some `Ok);
  Alcotest.(check bool) "unknown rule is None" true (Alert.state alerts "nope" = None);
  (* transitions logged oldest-first; registry counters advanced *)
  (match Alert.transitions alerts with
  | [ (t1, "slow_share", Alert.Fired); (t2, "slow_share", Alert.Resolved) ] ->
      feq "fired at" 1000.0 t1;
      feq "resolved at" 2000.0 t2
  | other -> Alcotest.failf "unexpected transitions (%d)" (List.length other));
  let snap = Registry.snapshot reg in
  Alcotest.(check bool) "fired counter" true
    (Registry.Snapshot.find snap "dsig_slo_alerts_fired_total" = Some (Registry.Snapshot.Counter 1));
  Alcotest.(check bool) "resolved counter" true
    (Registry.Snapshot.find snap "dsig_slo_alerts_resolved_total"
    = Some (Registry.Snapshot.Counter 1));
  let js = Alert.to_json alerts in
  Alcotest.(check bool) "json carries the schema" true
    (Result.is_ok (Json_lite.parse js)
    && Json_lite.(member "schema" (Result.get_ok (parse js)))
       = Some (Json_lite.Str "dsig-alerts-v1"))

let test_alert_latency () =
  let tel = Tel.create () in
  let sampler = Sampler.create tel.Tel.registry in
  let lat = Registry.gauge tel.Tel.registry "p99" in
  Metric.Gauge.set lat 10.0;
  let alerts =
    Alert.create ~telemetry:tel sampler
      [
        Alert.rule ~name:"lat"
          ~fast:{ Alert.window_us = 1000.0; max_burn = 1.0 }
          ~slow:{ Alert.window_us = 2000.0; max_burn = 1.0 }
          (Alert.Latency { series = "p99"; budget_us = 100.0 });
      ]
  in
  let tick now_us = ignore (Sampler.sample sampler ~now_us); Alert.step alerts ~now_us in
  ignore (tick 0.0);
  Metric.Gauge.set lat 500.0;
  (* the windowed average exceeds the budget across BOTH windows as
     soon as a bad point lands in each *)
  let e1 = tick 500.0 in
  let e2 = tick 1000.0 in
  Alcotest.(check bool) "fires on sustained high latency" true
    (List.mem ("lat", Alert.Fired) (e1 @ e2));
  Metric.Gauge.set lat 10.0;
  let rec drive t acc =
    if t > 6000.0 then acc else drive (t +. 500.0) (acc @ tick t)
  in
  Alcotest.(check bool) "resolves once the fast window drains" true
    (List.mem ("lat", Alert.Resolved) (drive 2000.0 []));
  Alcotest.(check bool) "ends Ok" true (Alert.state alerts "lat" = Some `Ok)

let test_alert_validation () =
  Alcotest.check_raises "non-positive window rejected"
    (Invalid_argument "Alert.rule: windows must be positive") (fun () ->
      ignore
        (Alert.rule ~name:"x"
           ~fast:{ Alert.window_us = 0.0; max_burn = 1.0 }
           (Alert.Latency { series = "s"; budget_us = 1.0 })))

let test_alert_on_transition () =
  let tel = Tel.create () in
  let reg = tel.Tel.registry in
  let bad = Registry.counter reg "shed_total" in
  let total = Registry.counter reg "offered_total" in
  let sampler = Sampler.create reg in
  let alerts =
    Alert.create ~telemetry:tel sampler
      [
        Alert.rule ~name:"shed_share"
          ~fast:{ Alert.window_us = 1000.0; max_burn = 1.0 }
          ~slow:{ Alert.window_us = 3000.0; max_burn = 1.0 }
          (Alert.Burn_rate { bad = "shed_total"; total = "offered_total"; budget = 0.5 });
      ]
  in
  let seen_a = ref [] and seen_b = ref [] in
  (* two sinks, registration order must hold per transition *)
  Alert.on_transition alerts (fun ~at_us ~rule ev ->
      seen_a := (at_us, rule, ev, List.length !seen_b) :: !seen_a);
  Alert.on_transition alerts (fun ~at_us ~rule ev -> seen_b := (at_us, rule, ev) :: !seen_b);
  let tick now_us = ignore (Sampler.sample sampler ~now_us); Alert.step alerts ~now_us in
  ignore (tick 0.0);
  Alcotest.(check int) "no transition, no callback" 0 (List.length !seen_a);
  Metric.Counter.incr ~by:10 bad;
  Metric.Counter.incr ~by:10 total;
  ignore (tick 1000.0);
  Metric.Counter.incr ~by:10 total;
  ignore (tick 2000.0);
  (match List.rev !seen_a with
  | [ (t1, "shed_share", Alert.Fired, b1); (t2, "shed_share", Alert.Resolved, b2) ] ->
      feq "fired at" 1000.0 t1;
      feq "resolved at" 2000.0 t2;
      (* first sink ran before the second had seen the same event *)
      Alcotest.(check int) "order on fire" 0 b1;
      Alcotest.(check int) "order on resolve" 1 b2
  | other -> Alcotest.failf "unexpected callback log (%d entries)" (List.length other));
  Alcotest.(check int) "second sink saw both" 2 (List.length !seen_b);
  (* callbacks agree with the polled transition log *)
  Alcotest.(check bool) "matches transitions" true
    (List.rev (List.map (fun (t, r, e) -> (t, r, e)) !seen_b) = Alert.transitions alerts)

(* --- Trajectory --- *)

(* the committed baseline, from the test directory under dune or the
   repo root under dune exec *)
let committed_baseline () =
  let path = List.find Sys.file_exists [ "../BENCH_smoke.json"; "BENCH_smoke.json" ] in
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Trajectory.parse_snapshot body with
  | Ok metrics -> metrics
  | Error e -> Alcotest.failf "%s: %s" path e

let set name v metrics = (name, v) :: List.remove_assoc name metrics
let scale name k metrics = set name (List.assoc name metrics *. k) metrics

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_trajectory_compare () =
  let base = committed_baseline () in
  (* an exact count one below its pin, whatever the pin is *)
  let appends = List.assoc "store_wal_appends" base in
  let off_by_one = set "store_wal_appends" (appends -. 1.0) in
  let open Trajectory in
  (* label, baseline edit, fresh edit, the row to look at, its verdict *)
  let cases =
    [
      ("identical snapshots", Fun.id, Fun.id, "micro_dsig_verify_fast_us", Within);
      ("zero baseline gates", Fun.id, set "fleet_shed_ratio_2x" 0.5, "fleet_shed_ratio_2x", Moved);
      ("count off by one", Fun.id, off_by_one, "store_wal_appends", Moved);
      ("exact drop is re-pinned", Fun.id, set "alloc_wots_verify_words" 600.0,
        "alloc_wots_verify_words", Moved);
      ("latency x3", Fun.id, scale "micro_dsig_verify_fast_us" 3.0, "micro_dsig_verify_fast_us",
        Regressed);
      ("latency x1.4", Fun.id, scale "micro_dsig_verify_fast_us" 1.4, "micro_dsig_verify_fast_us",
        Within);
      ("latency x0.3", Fun.id, scale "micro_dsig_verify_fast_us" 0.3, "micro_dsig_verify_fast_us",
        Improved);
      ("wide band holds", Fun.id, scale "store_sign_us" 3.5, "store_sign_us", Within);
      ("wide band breaks", Fun.id, scale "store_sign_us" 4.5, "store_sign_us", Regressed);
      ("nan", Fun.id, set "micro_dsig_verify_fast_us" Float.nan, "micro_dsig_verify_fast_us",
        Non_finite);
      ("fresh lacks a row", Fun.id, List.remove_assoc "translog_entries", "translog_entries",
        Missing);
      ("baseline lacks a row", List.remove_assoc "translog_entries", Fun.id, "translog_entries",
        Missing);
      ("metric with no row", Fun.id, set "brand_new_us" 1.0, "brand_new_us", No_row);
    ]
  in
  List.iter
    (fun (label, edit_base, edit_fresh, name, verdict) ->
      let entries = compare_metrics ~baseline:(edit_base base) ~fresh:(edit_fresh base) in
      let e = List.find (fun e -> e.e_name = name) entries in
      Alcotest.(check string) label (verdict_name verdict) (verdict_name e.e_verdict);
      Alcotest.(check (list string))
        (label ^ ": failures") (if verdict = Within || verdict = Improved then [] else [ name ])
        (List.map (fun e -> e.e_name) (failures entries)))
    cases;
  (* a failure line names the row, its kind, both values and the band *)
  let line fresh name =
    describe (List.find (fun e -> e.e_name = name) (compare_metrics ~baseline:base ~fresh))
  in
  List.iter
    (fun (line, parts) ->
      List.iter (fun p -> Alcotest.(check bool) (line ^ " has " ^ p) true (contains line p)) parts)
    [
      ( line (off_by_one base) "store_wal_appends",
        [
          "store_wal_appends"; "deterministic"; Printf.sprintf "%.3f" appends;
          Printf.sprintf "%.3f" (appends -. 1.0); "band exact";
        ] );
      ( line (scale "micro_dsig_verify_fast_us" 3.0 base) "micro_dsig_verify_fast_us",
        [ "measured"; "lower-better"; "89.932"; "269.797"; "band ±50%" ] );
      (line (set "brand_new_us" 1.0 base) "brand_new_us", [ "brand_new_us"; "no row" ]);
    ]

let test_trajectory_parse_snapshot () =
  let body =
    {|{
  "schema": "dsig-bench-smoke-v2",
  "meta": { "written_at": "2026-01-01T00:00:00Z", "git_rev": "abc1234", "arch": "x86_64", "domains": 8, "ocaml": "5.1.1" },
  "metrics": { "micro_dsig_sign_us": 12.5, "micro_dsig_verify_fast_us": null }
}|}
  in
  (match Trajectory.parse_snapshot body with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok metrics ->
      feq "value" 12.5 (List.assoc "micro_dsig_sign_us" metrics);
      Alcotest.(check bool) "null is nan" true
        (Float.is_nan (List.assoc "micro_dsig_verify_fast_us" metrics));
      (* the writer's null for a non-finite value is reported as such,
         under the row's name, not as a missing metric *)
      let entries = Trajectory.compare_metrics ~baseline:(committed_baseline ()) ~fresh:metrics in
      let e = List.find (fun e -> e.Trajectory.e_name = "micro_dsig_verify_fast_us") entries in
      Alcotest.(check string) "null gates as non-finite"
        (Trajectory.verdict_name Trajectory.Non_finite)
        (Trajectory.verdict_name e.Trajectory.e_verdict));
  let meta = Trajectory.meta_of_snapshot body in
  Alcotest.(check (option string)) "meta git_rev" (Some "abc1234") (List.assoc_opt "git_rev" meta);
  Alcotest.(check (option string)) "meta domains" (Some "8") (List.assoc_opt "domains" meta);
  Alcotest.(check bool) "no metrics key is an error" true
    (Result.is_error (Trajectory.parse_snapshot {|{"schema":"x"}|}))

(* drift between the gate table and the committed baseline fails here,
   not only in the minutes-long @smoke run *)
let test_trajectory_table_matches_baseline () =
  let rows = List.map (fun r -> r.Trajectory.name) Trajectory.table in
  let base = List.map fst (committed_baseline ()) in
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " has exactly one row") 1
        (List.length (List.filter (( = ) name) rows)))
    base;
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " is in the baseline") true (List.mem name base))
    rows

let () =
  Alcotest.run "dsig timeseries"
    [
      ( "series",
        [
          Alcotest.test_case "push, wraparound, get" `Quick test_series_push_and_wrap;
          Alcotest.test_case "non-finite samples dropped" `Quick test_series_rejects_nonfinite;
          Alcotest.test_case "counter reset adjustment" `Quick test_series_counter_reset;
          Alcotest.test_case "windowed queries" `Quick test_series_windows;
          Alcotest.test_case "tiered compaction (gauge)" `Quick test_series_compaction_gauge;
          Alcotest.test_case "tiered compaction (counter)" `Quick test_series_compaction_counter;
          QCheck_alcotest.to_alcotest ~long:false counter_never_negative;
          QCheck_alcotest.to_alcotest ~long:false gauge_capacity_invariant;
          QCheck_alcotest.to_alcotest ~long:false compaction_bounds_raw;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "folds counters, gauges, histograms" `Quick test_sampler_folds_registry;
          Alcotest.test_case "throttling and probes" `Quick test_sampler_throttle_and_probe;
          Alcotest.test_case "to_json/of_json roundtrip" `Quick test_sampler_json_roundtrip;
          Alcotest.test_case "json_lite parser" `Quick test_json_lite;
        ] );
      ( "alert",
        [
          Alcotest.test_case "burn-rate fires and resolves" `Quick test_alert_burn_rate;
          Alcotest.test_case "latency rule fires and resolves" `Quick test_alert_latency;
          Alcotest.test_case "rule validation" `Quick test_alert_validation;
          Alcotest.test_case "on_transition callbacks" `Quick test_alert_on_transition;
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "compare verdicts" `Quick test_trajectory_compare;
          Alcotest.test_case "snapshot parsing" `Quick test_trajectory_parse_snapshot;
          Alcotest.test_case "table matches baseline" `Quick test_trajectory_table_matches_baseline;
        ] );
    ]
