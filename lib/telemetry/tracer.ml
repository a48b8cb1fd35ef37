type span =
  | Sign_fast
  | Sign_sync_refill
  | Verify_fast
  | Verify_slow
  | Batch_gen
  | Eddsa_sign
  | Announce_delivery
  | Reannounce
  | Span of string

type phase = Begin | End

type event = { span : span; phase : phase; at_us : float; tag : int }

type t = {
  mu : Mutex.t;
  buf : event array;  (* ring; slots beyond [total] hold a placeholder *)
  cap : int;
  mutable total : int;  (* events ever recorded *)
  mutable enabled : bool;
  mutable clock : unit -> float;
}

(* CLOCK_MONOTONIC via bechamel's C stub: never steps (NTP slews it at
   most), so durations computed from it are non-negative. It is also
   system-wide — every process on the host shares the same origin — so
   cross-process lifecycle stamps stay comparable. *)
let mono_clock_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

let placeholder = { span = Span ""; phase = Begin; at_us = 0.0; tag = 0 }

let create ?(capacity = 1024) ?(clock = mono_clock_us) () =
  let cap = Stdlib.max 1 capacity in
  { mu = Mutex.create (); buf = Array.make cap placeholder; cap; total = 0; enabled = false; clock }

let set_clock t clock = t.clock <- clock
let enable t = t.enabled <- true
let disable t = t.enabled <- false
let enabled t = t.enabled

let record_at t ?(tag = 0) span phase at_us =
  if t.enabled then begin
    Mutex.lock t.mu;
    t.buf.(t.total mod t.cap) <- { span; phase; at_us; tag };
    t.total <- t.total + 1;
    Mutex.unlock t.mu
  end

let record t ?tag span phase = record_at t ?tag span phase (t.clock ())

let events t =
  Mutex.lock t.mu;
  let kept = Stdlib.min t.total t.cap in
  let first = t.total - kept in
  let out = List.init kept (fun i -> t.buf.((first + i) mod t.cap)) in
  Mutex.unlock t.mu;
  out

let recorded t = t.total
let dropped t = Stdlib.max 0 (t.total - t.cap)
let capacity t = t.cap

let clear t =
  Mutex.lock t.mu;
  t.total <- 0;
  Mutex.unlock t.mu

let span_name = function
  | Sign_fast -> "sign_fast"
  | Sign_sync_refill -> "sign_sync_refill"
  | Verify_fast -> "verify_fast"
  | Verify_slow -> "verify_slow"
  | Batch_gen -> "batch_gen"
  | Eddsa_sign -> "eddsa_sign"
  | Announce_delivery -> "announce_delivery"
  | Reannounce -> "reannounce"
  | Span s -> s

let phase_name = function Begin -> "begin" | End -> "end"
