(* Verifier-side admission control (DESIGN.md §15).

   A saturated DSig verifier is not just slower — it is qualitatively
   worse: once the fast path falls behind, cache misses cascade into
   inline EdDSA on the critical path and latency collapses. This module
   gives the verifier an explicit overload story instead: every unit of
   work is classified (fast-path verify, slow-path repair, control) and
   must take a token from its class bucket before any crypto runs.

   Capacity is discovered, not configured. A single admitted rate R
   adapts by AIMD on a CoDel-style congestion signal: callers feed
   sojourn samples (queue delay, or verify-span duration where no queue
   is visible) through [observe]; if the *minimum* sojourn over a whole
   interval stays above the target, the node is genuinely backed up
   (not just seeing a burst) and R is cut multiplicatively. Each
   uncongested interval earns a fixed additive increase, so R probes
   back up to the real capacity after a spike.

   Shed priority is encoded in how the class buckets derive from R:

   - [Control] (announcements, ACKs, repair replies) is never shed —
     control frames are tiny and dropping them converts a load problem
     into a reliability problem (more re-announcements, more load).
   - [Verify] (fast path: batch root cached, one Merkle check) refills
     at the full rate R.
   - [Repair] (slow path: inline EdDSA, orders of magnitude dearer)
     refills at [repair_share]·R, and while the controller is in the
     congested state it is shed entirely — exactly the cascade the
     fast/slow split makes dangerous.

   The controller also exports a [pressure] byte (0..255) summarising
   recent shed probability; the verifier piggybacks it on ACK frames
   (Batch.Credit) so signers pace down loaded destinations.

   All entry points are mutex-protected and never call out while
   holding the lock, so any domain checking against the verifier (and
   any tcpnet thread) may call them. *)

module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric

type cls = Verify | Repair | Control

let cls_name = function Verify -> "verify" | Repair -> "repair" | Control -> "control"

type verdict = Admit | Shed

type params = {
  target_sojourn_us : float;
  interval_us : float;
  initial_rate_per_sec : float;
  min_rate_per_sec : float;
  max_rate_per_sec : float;
  additive_per_sec : float;
  beta : float;
  burst : float;
  repair_share : float;
}

let default_params =
  {
    target_sojourn_us = 500.0;
    interval_us = 10_000.0;
    initial_rate_per_sec = 50_000.0;
    min_rate_per_sec = 500.0;
    max_rate_per_sec = 5_000_000.0;
    additive_per_sec = 5_000.0;
    beta = 0.7;
    burst = 64.0;
    repair_share = 0.25;
  }

type stats = {
  offered_verify : int;
  shed_verify : int;
  offered_repair : int;
  shed_repair : int;
  offered_control : int;
  shed_control : int;
}

let offered_total s = s.offered_verify + s.offered_repair + s.offered_control
let shed_total s = s.shed_verify + s.shed_repair + s.shed_control

type tel_handles = {
  c_admitted : Metric.Counter.t;
  c_shed : Metric.Counter.t;
  c_shed_verify : Metric.Counter.t;
  c_shed_repair : Metric.Counter.t;
  g_rate : Metric.Gauge.t;
  g_pressure : Metric.Gauge.t;
  g_congested : Metric.Gauge.t;
  h_sojourn : Metric.Histogram.t;
}

type t = {
  p : params;
  mu : Mutex.t;
  mutable rate : float;  (* admitted tokens/sec, AIMD-adapted *)
  mutable verify_tokens : float;
  mutable repair_tokens : float;
  mutable last_refill_us : float option;
  mutable congested : bool;
  mutable interval_end_us : float option;
  mutable interval_min_us : float;  (* min sojourn seen this interval *)
  mutable ewma_shed : float;  (* recent shed probability, 0..1 *)
  mutable s_offered_verify : int;
  mutable s_shed_verify : int;
  mutable s_offered_repair : int;
  mutable s_shed_repair : int;
  mutable s_offered_control : int;
  th : tel_handles;
}

let validate p =
  if p.target_sojourn_us <= 0.0 then invalid_arg "Admission: target_sojourn_us must be > 0";
  if p.interval_us <= 0.0 then invalid_arg "Admission: interval_us must be > 0";
  if p.min_rate_per_sec <= 0.0 then invalid_arg "Admission: min_rate_per_sec must be > 0";
  if p.max_rate_per_sec < p.min_rate_per_sec then
    invalid_arg "Admission: max_rate_per_sec < min_rate_per_sec";
  if p.initial_rate_per_sec < p.min_rate_per_sec || p.initial_rate_per_sec > p.max_rate_per_sec
  then invalid_arg "Admission: initial_rate_per_sec outside [min, max]";
  if not (p.beta > 0.0 && p.beta < 1.0) then invalid_arg "Admission: beta must be in (0, 1)";
  if p.burst < 1.0 then invalid_arg "Admission: burst must be >= 1";
  if not (p.repair_share > 0.0 && p.repair_share <= 1.0) then
    invalid_arg "Admission: repair_share must be in (0, 1]"

let create ?(params = default_params) ?(telemetry = Tel.default) () =
  validate params;
  let th =
    {
      c_admitted = Tel.counter telemetry "dsig_loadctl_admitted_total";
      c_shed = Tel.counter telemetry "dsig_loadctl_shed_total";
      c_shed_verify = Tel.counter telemetry "dsig_loadctl_shed_verify_total";
      c_shed_repair = Tel.counter telemetry "dsig_loadctl_shed_repair_total";
      g_rate = Tel.gauge telemetry "dsig_loadctl_rate_per_sec";
      g_pressure = Tel.gauge telemetry "dsig_loadctl_pressure";
      g_congested = Tel.gauge telemetry "dsig_loadctl_congested";
      h_sojourn = Tel.histogram telemetry "dsig_loadctl_sojourn_us";
    }
  in
  Metric.Gauge.set th.g_rate params.initial_rate_per_sec;
  {
    p = params;
    mu = Mutex.create ();
    rate = params.initial_rate_per_sec;
    verify_tokens = params.burst;
    repair_tokens = params.burst *. params.repair_share;
    last_refill_us = None;
    congested = false;
    interval_end_us = None;
    interval_min_us = infinity;
    ewma_shed = 0.0;
    s_offered_verify = 0;
    s_shed_verify = 0;
    s_offered_repair = 0;
    s_shed_repair = 0;
    s_offered_control = 0;
    th;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Close the current CoDel interval if [now_us] has passed its end:
   an interval whose minimum sojourn never dipped below the target is a
   standing queue → congested, multiplicative decrease; otherwise the
   interval was healthy (or idle — no samples at all) → clear the
   congested state and earn one additive increase. Call sites hold
   [t.mu]. *)
let roll_interval t ~now_us =
  match t.interval_end_us with
  | None -> t.interval_end_us <- Some (now_us +. t.p.interval_us)
  | Some end_us when now_us >= end_us ->
      (if t.interval_min_us > t.p.target_sojourn_us && t.interval_min_us < infinity then begin
         t.congested <- true;
         t.rate <- Float.max t.p.min_rate_per_sec (t.rate *. t.p.beta)
       end
       else begin
         t.congested <- false;
         t.rate <-
           Float.min t.p.max_rate_per_sec
             (t.rate +. (t.p.additive_per_sec *. (t.p.interval_us /. 1_000_000.0)))
       end);
      t.interval_min_us <- infinity;
      t.interval_end_us <- Some (now_us +. t.p.interval_us);
      Metric.Gauge.set t.th.g_rate t.rate;
      Metric.Gauge.set t.th.g_congested (if t.congested then 1.0 else 0.0)
  | Some _ -> ()

let refill t ~now_us =
  (match t.last_refill_us with
  | Some last when now_us > last ->
      let dt_s = (now_us -. last) /. 1_000_000.0 in
      t.verify_tokens <- Float.min t.p.burst (t.verify_tokens +. (t.rate *. dt_s));
      t.repair_tokens <-
        Float.min
          (t.p.burst *. t.p.repair_share)
          (t.repair_tokens +. (t.rate *. t.p.repair_share *. dt_s))
  | Some _ -> ()
  | None -> ());
  t.last_refill_us <- Some now_us

let note_outcome t shed =
  let alpha = 1.0 /. 32.0 in
  t.ewma_shed <- ((1.0 -. alpha) *. t.ewma_shed) +. (alpha *. if shed then 1.0 else 0.0)

let pressure_locked t =
  let base = Float.max t.ewma_shed (if t.congested then 0.25 else 0.0) in
  int_of_float (Float.round (255.0 *. Float.min 1.0 base))

let observe t ~now_us ~sojourn_us =
  if Float.is_finite sojourn_us && sojourn_us >= 0.0 then begin
    Metric.Histogram.add t.th.h_sojourn sojourn_us;
    locked t (fun () ->
        if sojourn_us < t.interval_min_us then t.interval_min_us <- sojourn_us;
        roll_interval t ~now_us)
  end

let admit t ~now_us cls =
  let v =
    locked t (fun () ->
        roll_interval t ~now_us;
        refill t ~now_us;
        match cls with
        | Control ->
            t.s_offered_control <- t.s_offered_control + 1;
            Admit
        | Verify ->
            t.s_offered_verify <- t.s_offered_verify + 1;
            if t.verify_tokens >= 1.0 then begin
              t.verify_tokens <- t.verify_tokens -. 1.0;
              note_outcome t false;
              Admit
            end
            else begin
              t.s_shed_verify <- t.s_shed_verify + 1;
              note_outcome t true;
              Shed
            end
        | Repair ->
            t.s_offered_repair <- t.s_offered_repair + 1;
            if t.congested then begin
              t.s_shed_repair <- t.s_shed_repair + 1;
              note_outcome t true;
              Shed
            end
            else if t.repair_tokens >= 1.0 then begin
              t.repair_tokens <- t.repair_tokens -. 1.0;
              note_outcome t false;
              Admit
            end
            else begin
              t.s_shed_repair <- t.s_shed_repair + 1;
              note_outcome t true;
              Shed
            end)
  in
  (match v with
  | Admit -> Metric.Counter.incr t.th.c_admitted
  | Shed ->
      Metric.Counter.incr t.th.c_shed;
      (match cls with
      | Verify -> Metric.Counter.incr t.th.c_shed_verify
      | Repair -> Metric.Counter.incr t.th.c_shed_repair
      | Control -> ()));
  Metric.Gauge.set t.th.g_pressure (float_of_int (locked t (fun () -> pressure_locked t)));
  v

let congested t = locked t (fun () -> t.congested)
let rate_per_sec t = locked t (fun () -> t.rate)
let pressure t = locked t (fun () -> pressure_locked t)

let stats t =
  locked t (fun () ->
      {
        offered_verify = t.s_offered_verify;
        shed_verify = t.s_shed_verify;
        offered_repair = t.s_offered_repair;
        shed_repair = t.s_shed_repair;
        offered_control = t.s_offered_control;
        shed_control = 0;
      })

let to_json t =
  let s = stats t in
  let congested, rate, pressure =
    locked t (fun () -> (t.congested, t.rate, pressure_locked t))
  in
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"schema\":\"dsig-loadctl-v1\"";
  Buffer.add_string b (Printf.sprintf ",\"rate_per_sec\":%.1f" rate);
  Buffer.add_string b (Printf.sprintf ",\"congested\":%b" congested);
  Buffer.add_string b (Printf.sprintf ",\"pressure\":%d" pressure);
  Buffer.add_string b ",\"classes\":[";
  List.iteri
    (fun i (cls, offered, shed) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"class\":%S,\"offered\":%d,\"shed\":%d}" (cls_name cls) offered shed))
    [
      (Verify, s.offered_verify, s.shed_verify);
      (Repair, s.offered_repair, s.shed_repair);
      (Control, s.offered_control, s.shed_control);
    ];
  Buffer.add_string b "]}";
  Buffer.contents b
