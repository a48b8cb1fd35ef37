type plane = Sign | Announce | Verify | End_to_end

let plane_name = function
  | Sign -> "sign"
  | Announce -> "announce"
  | Verify -> "verify"
  | End_to_end -> "end_to_end"

type span = {
  sp_trace_id : int64;
  sp_origin : int;
  sp_birth_us : float;
  sp_sign_us : float;  (* nan when only a wire ctx was seen *)
  sp_announce_us : float;  (* nan when the batch admit was not observed *)
  sp_verify_us : float;
  sp_end_us : float;
  sp_e2e_us : float;
}

type sign_rec = { sr_origin : int; sr_birth_us : float; sr_dur_us : float }

(* Histogram/counter cells live in the bundle's registry so they appear
   in every snapshot/export once tracing has been enabled; resolving
   them lazily keeps never-enabled bundles' snapshots unchanged. *)
type handles = {
  h_sign : Metric.Histogram.t;
  h_announce : Metric.Histogram.t;
  h_verify : Metric.Histogram.t;
  h_e2e : Metric.Histogram.t;
  c_neg_clamped : Metric.Counter.t;
}

(* The registry reads these through probes, which capture only this
   record, not the aggregator. *)
type counts = { mutable started : int; mutable completed : int }

type t = {
  mu : Mutex.t;
  registry : Registry.t;
  mutable enabled : bool;
  mutable handles : handles option;
  max_pending : int;
  signs : (int64, sign_rec) Hashtbl.t;
  sign_order : int64 Queue.t;  (* FIFO eviction *)
  admits : (int64, float) Hashtbl.t;  (* batch key -> announce latency *)
  admit_order : int64 Queue.t;
  spans : span array;  (* ring of completed spans *)
  cap : int;
  mutable total : int;  (* spans ever completed (ring write cursor) *)
  counts : counts;
  mutable full : int;  (* completed spans with sign+announce+verify all present *)
}

let placeholder =
  {
    sp_trace_id = 0L;
    sp_origin = 0;
    sp_birth_us = 0.0;
    sp_sign_us = Float.nan;
    sp_announce_us = Float.nan;
    sp_verify_us = 0.0;
    sp_end_us = 0.0;
    sp_e2e_us = 0.0;
  }

let create ?(span_capacity = 4096) ?(max_pending = 8192) ~registry () =
  let cap = Stdlib.max 1 span_capacity in
  {
    mu = Mutex.create ();
    registry;
    enabled = false;
    handles = None;
    max_pending = Stdlib.max 1 max_pending;
    signs = Hashtbl.create 64;
    sign_order = Queue.create ();
    admits = Hashtbl.create 16;
    admit_order = Queue.create ();
    spans = Array.make cap placeholder;
    cap;
    total = 0;
    counts = { started = 0; completed = 0 };
    full = 0;
  }

(* Must be called under [mu]: probes sum across bindings of a name, so
   two racing first resolutions would count every event twice. *)
let resolve_handles t =
  match t.handles with
  | Some h -> h
  | None ->
      let h =
        {
          h_sign = Registry.histogram t.registry "dsig_lifecycle_sign_us";
          h_announce = Registry.histogram t.registry "dsig_lifecycle_announce_us";
          h_verify = Registry.histogram t.registry "dsig_lifecycle_verify_us";
          h_e2e = Registry.histogram t.registry "dsig_lifecycle_e2e_us";
          c_neg_clamped = Registry.counter t.registry "dsig_lifecycle_negative_clamped_total";
        }
      in
      let counts = t.counts in
      Registry.probe t.registry ~owner:t "dsig_lifecycle_started_total" (fun () -> counts.started);
      Registry.probe t.registry ~owner:t "dsig_lifecycle_completed_total" (fun () ->
          counts.completed);
      t.handles <- Some h;
      h

let enable t =
  Mutex.protect t.mu (fun () -> ignore (resolve_handles t));
  t.enabled <- true

let enabled t = t.enabled

(* [mu] guards the pending tables, the span ring and the running
   counts: lifecycle events may come from any domain (foreground
   signer, background refill, reader threads). The metric cells are
   domain-safe on their own; they are written under [mu] only because
   each write belongs to a locked update. *)

(* Durations come from the monotonic clock, but callers can still plug
   a wall clock (or stamps can cross a process boundary with skewed
   CLOCK_MONOTONIC after reboot); a negative span would land in bucket
   0 and silently drag every percentile down, so clamp it to zero and
   count it instead. Must be called under [mu]. *)
let clamp_span h v =
  if v < 0.0 then begin
    Metric.Counter.incr h.c_neg_clamped;
    0.0
  end
  else v

let sign t ~trace_id ~origin ~birth_us ~dur_us =
  if t.enabled then begin
    Mutex.lock t.mu;
    let h = resolve_handles t in
    let dur_us = clamp_span h dur_us in
    Metric.Histogram.add h.h_sign dur_us;
    t.counts.started <- t.counts.started + 1;
    if not (Hashtbl.mem t.signs trace_id) then begin
      Hashtbl.replace t.signs trace_id { sr_origin = origin; sr_birth_us = birth_us; sr_dur_us = dur_us };
      Queue.add trace_id t.sign_order;
      while Hashtbl.length t.signs > t.max_pending && not (Queue.is_empty t.sign_order) do
        Hashtbl.remove t.signs (Queue.pop t.sign_order)
      done
    end;
    Mutex.unlock t.mu
  end

let admit t ~signer ~batch_id ~latency_us =
  if t.enabled then begin
    let key = Trace_ctx.batch_key ~signer ~batch_id in
    Mutex.lock t.mu;
    let h = resolve_handles t in
    (* only the first successful admit counts: re-deliveries of an
       already-cached batch do not change when it became usable *)
    if not (Hashtbl.mem t.admits key) then begin
      let latency_us = clamp_span h latency_us in
      Metric.Histogram.add h.h_announce latency_us;
      Hashtbl.replace t.admits key latency_us;
      Queue.add key t.admit_order;
      while Hashtbl.length t.admits > t.max_pending && not (Queue.is_empty t.admit_order) do
        Hashtbl.remove t.admits (Queue.pop t.admit_order)
      done
    end;
    Mutex.unlock t.mu
  end

let verify t ~trace_id ?origin ?birth_us ~at_us ~dur_us () =
  if t.enabled then begin
    Mutex.lock t.mu;
    let h = resolve_handles t in
    let dur_us = clamp_span h dur_us in
    Metric.Histogram.add h.h_verify dur_us;
    let announce = Hashtbl.find_opt t.admits (Trace_ctx.batch_key_of_id trace_id) in
    let birth, origin', sign_us =
      match Hashtbl.find_opt t.signs trace_id with
      | Some r -> (Some r.sr_birth_us, r.sr_origin, r.sr_dur_us)
      | None ->
          ( birth_us,
            Option.value origin ~default:(Trace_ctx.signer_of_id trace_id),
            Float.nan )
    in
    (match birth with
    | None -> ()  (* verify-only observation: no span without a birth stamp *)
    | Some b ->
        let ann = match announce with Some a -> a | None -> Float.nan in
        let e2e = clamp_span h (at_us -. b) in
        t.spans.(t.total mod t.cap) <-
          {
            sp_trace_id = trace_id;
            sp_origin = origin';
            sp_birth_us = b;
            sp_sign_us = sign_us;
            sp_announce_us = ann;
            sp_verify_us = dur_us;
            sp_end_us = at_us;
            sp_e2e_us = e2e;
          };
        t.total <- t.total + 1;
        t.counts.completed <- t.counts.completed + 1;
        if (not (Float.is_nan sign_us)) && not (Float.is_nan ann) then t.full <- t.full + 1;
        Metric.Histogram.add h.h_e2e e2e);
    Mutex.unlock t.mu
  end

let announce_of t ~signer ~batch_id =
  Mutex.lock t.mu;
  let r = Hashtbl.find_opt t.admits (Trace_ctx.batch_key ~signer ~batch_id) in
  Mutex.unlock t.mu;
  r

let spans t =
  Mutex.lock t.mu;
  let kept = Stdlib.min t.total t.cap in
  let first = t.total - kept in
  let out = List.init kept (fun i -> t.spans.((first + i) mod t.cap)) in
  Mutex.unlock t.mu;
  out

let started t = t.counts.started
let completed t = t.counts.completed
let full t = t.full

let hist_of t plane =
  Option.map
    (fun h ->
      match plane with
      | Sign -> h.h_sign
      | Announce -> h.h_announce
      | Verify -> h.h_verify
      | End_to_end -> h.h_e2e)
    t.handles

let plane_snapshot t plane =
  match hist_of t plane with
  | None -> Metric.Histogram.empty
  | Some h -> Metric.Histogram.snapshot h

let percentile t plane p = Metric.Histogram.percentile (plane_snapshot t plane) p

let plane_within t plane ~budget_us =
  let snap = plane_snapshot t plane in
  snap.Metric.Histogram.n > 0 && Metric.Histogram.percentile snap 99.0 <= budget_us

let within ~budget_us t = t.counts.completed > 0 && plane_within t End_to_end ~budget_us
