type policy = {
  base_us : float;
  multiplier : float;
  max_delay_us : float;
  jitter : float;
  max_attempts : int;
  deadline_us : float;
}

let policy ?(base_us = 1000.0) ?(multiplier = 2.0) ?(max_delay_us = 64_000.0) ?(jitter = 0.2)
    ?(max_attempts = 10) ?(deadline_us = infinity) () =
  if base_us <= 0.0 then invalid_arg "Retry.policy: base_us must be positive";
  if multiplier <= 0.0 then invalid_arg "Retry.policy: multiplier must be positive";
  if jitter < 0.0 || jitter >= 1.0 then invalid_arg "Retry.policy: jitter must be in [0, 1)";
  if max_attempts < 0 then invalid_arg "Retry.policy: max_attempts must be non-negative";
  if deadline_us <= 0.0 then invalid_arg "Retry.policy: deadline_us must be positive";
  { base_us; multiplier; max_delay_us; jitter; max_attempts; deadline_us }

let delay_us p ~rng ~attempt =
  let raw = p.base_us *. (p.multiplier ** float_of_int attempt) in
  let capped = Float.min raw p.max_delay_us in
  if p.jitter = 0.0 then capped
  else begin
    (* uniform factor in [1 - jitter, 1 + jitter] *)
    let factor = 1.0 -. p.jitter +. Rng.float rng (2.0 *. p.jitter) in
    capped *. factor
  end

type state = { attempt : int; next_due_us : float; started_us : float }

let start p ~rng ~now =
  { attempt = 0; next_due_us = now +. delay_us p ~rng ~attempt:0; started_us = now }

let due s ~now = now >= s.next_due_us

let next p ~rng s ~now =
  let consumed = s.attempt + 1 in
  if p.max_attempts > 0 && consumed >= p.max_attempts then None
  else if now -. s.started_us >= p.deadline_us then None
  else
    Some
      {
        attempt = consumed;
        next_due_us = now +. delay_us p ~rng ~attempt:consumed;
        started_us = s.started_us;
      }

let attempts s = s.attempt
