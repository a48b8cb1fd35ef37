type params = {
  alpha : float;
  beta : float;
  k : float;
  granularity_us : float;
  initial_rto_us : float;
  min_rto_us : float;
  max_rto_us : float;
  backoff : float;
}

let params ?(alpha = 0.125) ?(beta = 0.25) ?(k = 4.0) ?(granularity_us = 10.0)
    ?(initial_rto_us = 5_000.0) ?(min_rto_us = 200.0) ?(max_rto_us = 64_000.0) ?(backoff = 2.0) ()
    =
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Rtt.params: alpha must be in (0, 1]";
  if beta <= 0.0 || beta > 1.0 then invalid_arg "Rtt.params: beta must be in (0, 1]";
  if k < 0.0 then invalid_arg "Rtt.params: k must be non-negative";
  if granularity_us < 0.0 then invalid_arg "Rtt.params: granularity_us must be non-negative";
  if initial_rto_us <= 0.0 then invalid_arg "Rtt.params: initial_rto_us must be positive";
  if min_rto_us <= 0.0 then invalid_arg "Rtt.params: min_rto_us must be positive";
  if max_rto_us < min_rto_us then invalid_arg "Rtt.params: max_rto_us must be >= min_rto_us";
  if backoff < 1.0 then invalid_arg "Rtt.params: backoff must be >= 1.0";
  { alpha; beta; k; granularity_us; initial_rto_us; min_rto_us; max_rto_us; backoff }

let default = params ()

type t = {
  srtt : float; (* NaN until the first sample *)
  rttvar : float;
  base_rto_us : float; (* RTO before timeout backoff *)
  timeouts : int; (* consecutive expiries since the last clean sample *)
  samples : int;
}

let init p =
  { srtt = Float.nan; rttvar = Float.nan; base_rto_us = p.initial_rto_us; timeouts = 0; samples = 0 }

let clamp p v = Float.min p.max_rto_us (Float.max p.min_rto_us v)

let sample p t ~rtt_us =
  let r = Float.max 0.0 rtt_us in
  let srtt, rttvar =
    if t.samples = 0 then (r, r /. 2.0)
    else
      (* RFC 6298 order: RTTVAR first, against the previous SRTT *)
      let rttvar = ((1.0 -. p.beta) *. t.rttvar) +. (p.beta *. Float.abs (t.srtt -. r)) in
      let srtt = ((1.0 -. p.alpha) *. t.srtt) +. (p.alpha *. r) in
      (srtt, rttvar)
  in
  let base = clamp p (srtt +. Float.max p.granularity_us (p.k *. rttvar)) in
  { srtt; rttvar; base_rto_us = base; timeouts = 0; samples = t.samples + 1 }

let on_timeout _p t = { t with timeouts = t.timeouts + 1 }

let rto_us p t =
  (* multiplicative backoff on consecutive expiries, capped; computed on
     read so the cap never loses the backoff count *)
  let rec scaled rto n = if n <= 0 || rto >= p.max_rto_us then rto else scaled (rto *. p.backoff) (n - 1) in
  clamp p (scaled t.base_rto_us t.timeouts)

let srtt_us t = if t.samples = 0 then None else Some t.srtt
let samples t = t.samples
let timeouts t = t.timeouts
