(** Bounded ring-buffer event tracer for the DSig planes.

    Records span begin/end events — sign fast path, sign synchronous
    refill, verify fast/slow path, batch generation, EdDSA signing,
    announcement delivery — with timestamps from a pluggable clock
    (virtual time via [Sim.now], or the default wall clock). The buffer
    holds the most recent [capacity] events; older events are dropped
    (and counted) rather than growing memory.

    Disabled by default: a disabled tracer's {!record} is one mutable
    load, so instrumentation can stay in place permanently. Enable with
    {!enable} (e.g. [dsig stats --trace]). When enabled, recording takes
    a mutex — the tracer is for investigations, not for the always-on
    metrics plane ({!Registry}). *)

type span =
  | Sign_fast
  | Sign_sync_refill
  | Verify_fast
  | Verify_slow
  | Batch_gen
  | Eddsa_sign
  | Announce_delivery
  | Reannounce  (** signer-side re-announcement round for unACKed batches *)
  | Span of string  (** application-defined *)

type phase = Begin | End

type event = {
  span : span;
  phase : phase;
  at_us : float;  (** clock value when recorded *)
  tag : int;  (** caller-chosen correlator (signer id, batch id, ...) *)
}

type t

val mono_clock_us : unit -> float
(** [CLOCK_MONOTONIC] scaled to microseconds — the default clock. Never
    steps backward, and is shared by all processes on the host, so
    cross-process span stamps remain comparable. *)

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** [capacity] defaults to 1024 events (two per traced span). [clock]
    defaults to {!mono_clock_us}. *)

val set_clock : t -> (unit -> float) -> unit
val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool

val record : t -> ?tag:int -> span -> phase -> unit
(** Stamp an event with the tracer's clock. No-op when disabled. *)

val record_at : t -> ?tag:int -> span -> phase -> float -> unit
(** Like {!record} with an explicit timestamp — for a span whose kind
    is only known at its end (the begin event is back-dated). *)

val events : t -> event list
(** Buffered events, oldest first (at most [capacity]). *)

val recorded : t -> int
(** Events ever accepted, including dropped ones. *)

val dropped : t -> int
val capacity : t -> int
val clear : t -> unit

val span_name : span -> string
(** Stable lower_snake_case name, used by the exporters. *)

val phase_name : phase -> string
