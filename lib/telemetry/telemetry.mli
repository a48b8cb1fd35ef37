(** The telemetry handle threaded through the DSig planes: a metric
    {!Registry}, the signature {!Lifecycle} aggregator, and the clock
    both use.

    Components take an optional [?telemetry] argument defaulting to
    {!default}, so instrumentation is always on (metrics cost a handful
    of arithmetic operations per event; the lifecycle aggregator is off
    until {!Lifecycle.enable}). Pass a dedicated handle to isolate a
    deployment or to drive timestamps from virtual time:

    {[
      let tel = Telemetry.create ~clock:(fun () -> Sim.now sim) () in
      let signer = Signer.create cfg ~options:(Options.with_telemetry tel Options.default) ... in
      print_string (Export.json ~lifecycle:tel.lifecycle (Telemetry.snapshot tel))
    ]} *)

type t = {
  registry : Registry.t;
  lifecycle : Lifecycle.t;
      (** signature-lifecycle aggregator; off until {!Lifecycle.enable} *)
  mutable clock : unit -> float;  (** microseconds; wall or virtual *)
}

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] defaults to {!Tracer.mono_clock_us} (monotonic
    microseconds: wall time steps under NTP and poisons durations). *)

val default : t
(** Process-wide handle used when components are not given one. *)

val set_clock : t -> (unit -> float) -> unit
(** Repoints the bundle's clock: every later {!now}, and so every
    duration its components record, reads [clock]. *)

val now : t -> float

val counter : t -> string -> Metric.Counter.t
val gauge : t -> string -> Metric.Gauge.t
val histogram : t -> string -> Metric.Histogram.t
(** Handles from the bundle's registry, valid on any domain; resolve
    once and cache (see {!Registry}). *)

val probe : t -> owner:'a -> string -> (unit -> int) -> unit
(** {!Registry.probe} on the bundle's registry. *)

val gauge_probe : t -> owner:'a -> string -> (unit -> float) -> unit
(** {!Registry.gauge_probe} on the bundle's registry. *)

val snapshot : t -> Registry.Snapshot.t
