(* CLOCK_MONOTONIC via bechamel's C stub: never steps (NTP slews it at
   most), so durations computed from it are non-negative. It is also
   system-wide — every process on the host shares the same origin — so
   cross-process lifecycle stamps stay comparable. *)
let mono_clock_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3
