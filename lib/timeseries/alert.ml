module Tel = Dsig_telemetry.Telemetry
module Export = Dsig_telemetry.Export

type window = { window_us : float; max_burn : float }

type condition =
  | Burn_rate of { bad : string; total : string; budget : float }
  | Latency of { series : string; budget_us : float }

type event = Fired | Resolved

let event_name = function Fired -> "fired" | Resolved -> "resolved"

type rule = {
  r_name : string;
  r_cond : condition;
  r_fast : window;
  r_slow : window;
}

(* classic multiwindow defaults, scaled for wall-clock deployments:
   page when 14.4x burn holds for 5 minutes AND 6x for an hour *)
let default_fast = { window_us = 300.0e6; max_burn = 14.4 }
let default_slow = { window_us = 3600.0e6; max_burn = 6.0 }

let rule ?(fast = default_fast) ?(slow = default_slow) ~name cond =
  if fast.window_us <= 0.0 || slow.window_us <= 0.0 then
    invalid_arg "Alert.rule: windows must be positive";
  (match cond with
  | Burn_rate { budget; _ } ->
      if budget <= 0.0 then invalid_arg "Alert.rule: budget must be positive"
  | Latency { budget_us; _ } ->
      if budget_us <= 0.0 then invalid_arg "Alert.rule: budget_us must be positive");
  { r_name = name; r_cond = cond; r_fast = fast; r_slow = slow }

type status = {
  mutable firing : bool;
  mutable since_us : float; (* when the current state was entered *)
  mutable burn_fast : float;
  mutable burn_slow : float;
}

type t = {
  sampler : Sampler.t;
  rules : (rule * status) list;
  c_fired : Dsig_telemetry.Metric.Counter.t;
  c_resolved : Dsig_telemetry.Metric.Counter.t;
  g_firing : Dsig_telemetry.Metric.Gauge.t;
  transitions : (float * string * event) Queue.t;
  transition_cap : int;
  mutable callbacks : (at_us:float -> rule:string -> event -> unit) list;
}

let create ?(telemetry = Tel.default) ?(transition_cap = 256) sampler rules =
  let reg = telemetry.Tel.registry in
  {
    sampler;
    rules =
      List.map
        (fun r ->
          (r, { firing = false; since_us = 0.0; burn_fast = 0.0; burn_slow = 0.0 }))
        rules;
    c_fired = Dsig_telemetry.Registry.counter reg "dsig_slo_alerts_fired_total";
    c_resolved = Dsig_telemetry.Registry.counter reg "dsig_slo_alerts_resolved_total";
    g_firing = Dsig_telemetry.Registry.gauge reg "dsig_slo_alerts_firing";
    transitions = Queue.create ();
    transition_cap;
    callbacks = [];
  }

let rules t = List.map fst t.rules
let on_transition t f = t.callbacks <- t.callbacks @ [ f ]

(* error-budget burn over one trailing window. For a burn-rate
   condition this is (bad/total)/budget — 1.0 means failures arrive
   exactly at the budgeted share; for a latency condition it is the
   windowed average over the budget. A window with no traffic burns
   nothing. *)
let burn_over t cond ~window_us ~now_us =
  let from_us = now_us -. window_us in
  match cond with
  | Burn_rate { bad; total; budget } -> (
      match (Sampler.find t.sampler bad, Sampler.find t.sampler total) with
      | Some b, Some tot ->
          let bad_d = Series.delta_over b ~from_us ~until_us:now_us in
          let total_d = Series.delta_over tot ~from_us ~until_us:now_us in
          if total_d <= 0.0 then 0.0 else bad_d /. total_d /. budget
      | _ -> 0.0)
  | Latency { series; budget_us } -> (
      match Sampler.find t.sampler series with
      | Some s -> (
          match Series.window_avg s ~from_us ~until_us:now_us with
          | Some avg -> avg /. budget_us
          | None -> 0.0)
      | None -> 0.0)

let record_transition t ~now_us name ev =
  Queue.push (now_us, name, ev) t.transitions;
  if Queue.length t.transitions > t.transition_cap then
    ignore (Queue.pop t.transitions);
  (* registration order; a raising callback aborts the step — alerting
     sinks must be total *)
  List.iter (fun f -> f ~at_us:now_us ~rule:name ev) t.callbacks

let step t ~now_us =
  let changed =
    List.filter_map
      (fun (r, st) ->
        st.burn_fast <- burn_over t r.r_cond ~window_us:r.r_fast.window_us ~now_us;
        st.burn_slow <- burn_over t r.r_cond ~window_us:r.r_slow.window_us ~now_us;
        if
          (not st.firing)
          && st.burn_fast > r.r_fast.max_burn
          && st.burn_slow > r.r_slow.max_burn
        then begin
          st.firing <- true;
          st.since_us <- now_us;
          Dsig_telemetry.Metric.Counter.incr t.c_fired;
          record_transition t ~now_us r.r_name Fired;
          Some (r.r_name, Fired)
        end
        else if st.firing && st.burn_fast <= r.r_fast.max_burn then begin
          (* the fast window clearing is the resolve signal: the slow
             window keeps yesterday's incident burning for hours *)
          st.firing <- false;
          st.since_us <- now_us;
          Dsig_telemetry.Metric.Counter.incr t.c_resolved;
          record_transition t ~now_us r.r_name Resolved;
          Some (r.r_name, Resolved)
        end
        else None)
      t.rules
  in
  let firing_now =
    List.fold_left (fun n (_, st) -> if st.firing then n + 1 else n) 0 t.rules
  in
  Dsig_telemetry.Metric.Gauge.set t.g_firing (float_of_int firing_now);
  changed

let state t name =
  List.find_map
    (fun (r, st) ->
      if r.r_name = name then
        Some (if st.firing then `Firing st.since_us else `Ok)
      else None)
    t.rules

let firing t =
  List.filter_map (fun (r, st) -> if st.firing then Some r.r_name else None) t.rules

let transitions t = List.of_seq (Queue.to_seq t.transitions)

(* --- JSON --- *)

let num = Export.json_number
let str = Export.json_escape

let condition_json = function
  | Burn_rate { bad; total; budget } ->
      Printf.sprintf
        "{\"type\":\"burn_rate\",\"bad\":\"%s\",\"total\":\"%s\",\"budget\":%s}"
        (str bad) (str total) (num budget)
  | Latency { series; budget_us } ->
      Printf.sprintf "{\"type\":\"latency\",\"series\":\"%s\",\"budget_us\":%s}"
        (str series) (num budget_us)

let to_json t =
  let alerts =
    List.map
      (fun (r, st) ->
        Printf.sprintf
          "{\"name\":\"%s\",\"state\":\"%s\",\"since_us\":%s,\"burn_fast\":%s,\"burn_slow\":%s,\"fast_window_us\":%s,\"fast_max_burn\":%s,\"slow_window_us\":%s,\"slow_max_burn\":%s,\"condition\":%s}"
          (str r.r_name)
          (if st.firing then "firing" else "ok")
          (num st.since_us) (num st.burn_fast) (num st.burn_slow)
          (num r.r_fast.window_us) (num r.r_fast.max_burn)
          (num r.r_slow.window_us) (num r.r_slow.max_burn)
          (condition_json r.r_cond))
      t.rules
  in
  let transitions =
    List.map
      (fun (at_us, name, ev) ->
        Printf.sprintf "{\"at_us\":%s,\"rule\":\"%s\",\"event\":\"%s\"}" (num at_us)
          (str name) (event_name ev))
      (transitions t)
  in
  Printf.sprintf
    "{\"schema\":\"dsig-alerts-v1\",\"alerts\":[%s],\"transitions\":[%s]}"
    (String.concat "," alerts)
    (String.concat "," transitions)
