(** The host's monotonic clock, the default {!Telemetry} clock. *)

val mono_clock_us : unit -> float
(** [CLOCK_MONOTONIC] scaled to microseconds. Never steps backward, and
    is shared by all processes on the host, so cross-process lifecycle
    stamps remain comparable. *)
