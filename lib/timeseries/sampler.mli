(** Folds a {!Dsig_telemetry.Registry} into ring-buffered {!Series}.

    Each {!sample} tick takes one registry snapshot and appends one
    point per metric: counters land in [Counter] series (so
    {!Series.rate_over} derives rates), gauges keep their last value,
    and histograms fold into three derived series — [name:count]
    (cumulative observations, a counter), [name:p50] and [name:p99]
    (running percentiles, gauges). The registry is the only source: a
    value kept outside it (a component's stats record) reaches the
    timeline as a {!Dsig_telemetry.Registry.probe}, under its one
    registry name.

    The sampler is clock-agnostic: callers pass [~now_us] from
    whatever clock drives them (simnet virtual time in tests,
    [Telemetry.now] wall time in deployments). [interval_us] turns a
    high-frequency caller (a per-poll control-plane hook) into a fixed
    cadence: ticks arriving early return [false] and record nothing. *)

type t

val create : ?capacity:int -> ?interval_us:float -> Dsig_telemetry.Registry.t -> t
(** [capacity] (default 512) bounds every series; [interval_us]
    (default [0.], i.e. every tick records) throttles sampling.
    @raise Invalid_argument on a non-positive capacity or negative
    interval. *)

val interval_us : t -> float

val sample : t -> now_us:float -> bool
(** Record one point per metric at [now_us]. Returns [false] (and
    records nothing) when the tick arrives less than [interval_us]
    after the previously recorded one. *)

val samples : t -> int
(** Recorded (non-throttled) ticks so far. *)

val find : t -> string -> Series.t option
val all : t -> Series.t list
(** Sorted by series name. *)

val to_json : t -> string
(** [{"schema":"dsig-timeseries-v1","samples":N,"last_us":T,
    "series":[{"name","kind","points":[[t_us,v],...]},...]}] — the
    payload served by the Scrape [/timeseries] route. *)

val of_json : string -> ((string * Series.kind * (float * float) list) list, string) result
(** Parse a {!to_json} payload back into [(name, kind, points)] rows —
    the reader behind [dsig_cli timeline]'s file/endpoint modes.
    Unknown kinds degrade to [Gauge]; malformed points are skipped. *)
