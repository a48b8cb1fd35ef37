type t = {
  sim : Sim.t;
  name : string;
  mutable busy_until : float;
  mutable busy_time : float; (* accumulated occupancy *)
}

let create ?(name = "resource") sim = { sim; name; busy_until = 0.0; busy_time = 0.0 }

let use t d =
  if d < 0.0 then invalid_arg (t.name ^ ": negative duration");
  let now = Sim.now t.sim in
  let start = Float.max now t.busy_until in
  let finish = start +. d in
  t.busy_until <- finish;
  t.busy_time <- t.busy_time +. d;
  Sim.sleep (finish -. now)

let busy_until t = t.busy_until

let utilization t =
  let elapsed = Sim.now t.sim in
  if elapsed <= 0.0 then 0.0 else Float.min 1.0 (t.busy_time /. elapsed)
