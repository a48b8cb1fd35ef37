(** The telemetry handle threaded through the DSig planes: a metric
    {!Registry}, a span {!Tracer}, and the clock both use.

    Components take an optional [?telemetry] argument defaulting to
    {!default}, so instrumentation is always on (metrics cost a handful
    of arithmetic operations per event; the tracer is off until
    {!Tracer.enable}). Pass a dedicated handle to isolate a deployment
    or to drive timestamps from virtual time:

    {[
      let tel = Telemetry.create ~clock:(fun () -> Sim.now sim) () in
      let signer = Signer.create cfg ~telemetry:tel ... in
      print_string (Export.json ~tracer:tel.tracer (Telemetry.snapshot tel))
    ]} *)

type t = {
  registry : Registry.t;
  tracer : Tracer.t;
  lifecycle : Lifecycle.t;
      (** signature-lifecycle aggregator; off until {!Lifecycle.enable} *)
  mutable clock : unit -> float;  (** microseconds; wall or virtual *)
}

val create : ?clock:(unit -> float) -> ?trace_capacity:int -> ?span_capacity:int -> unit -> t
(** [clock] defaults to {!Tracer.mono_clock_us} (monotonic
    microseconds: wall time steps under NTP and poisons durations);
    [span_capacity] bounds the lifecycle span ring (default 4096). *)

val default : t
(** Process-wide handle used when components are not given one. *)

val set_clock : t -> (unit -> float) -> unit
(** Repoints both the bundle's clock and the tracer's. *)

val now : t -> float

val counter : t -> string -> Metric.Counter.t
val gauge : t -> string -> Metric.Gauge.t
val histogram : t -> string -> Metric.Histogram.t
(** Handles from the bundle's registry, valid on any domain; resolve
    once and cache (see {!Registry}). *)

val probe : t -> string -> (unit -> int) -> unit
(** {!Registry.probe} on the bundle's registry. *)

val gauge_probe : t -> string -> (unit -> float) -> unit
(** {!Registry.gauge_probe} on the bundle's registry. *)

val snapshot : t -> Registry.Snapshot.t

val time : t -> Metric.Histogram.t -> (unit -> 'a) -> 'a
(** [time t h f] runs [f] and adds the elapsed clock time to [h]
    (exceptions included — the sample is recorded either way). *)
