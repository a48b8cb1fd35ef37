(** Renderings of a registry snapshot (plus, optionally, the lifecycle
    aggregator's per-plane summary): machine-readable JSON, Prometheus
    text-exposition format, and an [Fmt]-based human summary.

    All three are deterministic for a given snapshot (names are sorted),
    so they can be golden-tested and diffed across runs. *)

val json : ?lifecycle:Lifecycle.t -> Registry.Snapshot.t -> string
(** Compact single-line JSON:
    [{"counters":{..},"gauges":{..},"histograms":{..},"lifecycle":{..}}].
    Histogram entries carry count/sum/mean/min/max, the nearest-rank
    p50/p90/p99, and the non-empty buckets as
    [{"le":"<bound>","count":n}] pairs ([le] is a string so the +Inf
    overflow bucket needs no special casing). The [lifecycle] key is
    present only when [lifecycle] is given: a
    [{"started":..,"completed":..,"full":..,"planes":{"sign":{..},..}}]
    object whose per-plane entries carry count and p50/p99/p999. *)

val json_escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): escapes
    the quote, backslash, newline and tab, and writes every other
    control character as [\u00XX]. *)

val json_number : float -> string
(** A JSON number: integral values below 1e15 without a fraction, any
    other value in [%.12g]. The time-series and alert JSON
    ([Dsig_timeseries]) render through this pair too, so the three
    exports escape and print alike. *)

val json_lifecycle : Lifecycle.t -> string
(** The [lifecycle] object alone (what {!json} embeds). *)

val json_spans : Lifecycle.t -> string
(** JSON array of the most recent completed lifecycle spans, oldest
    first — the body of a [/trace] scrape. Trace ids are hex strings;
    planes missing from a span render as [null]. *)

val prom_name : string -> string
(** Deterministic Prometheus name sanitization: characters outside
    [[a-zA-Z0-9_:]] become [_], and a leading digit is prefixed with
    [_] (["9p.lat-us"] → ["_9p_lat_us"]). Exposed for tests. *)

val prometheus : Registry.Snapshot.t -> string
(** Text exposition format: every family is announced with a [# HELP]
    line (carrying the raw registry name, escaped) followed by
    [# TYPE], then its samples — the ordering real Prometheus scrapers
    expect. Histograms emit cumulative [_bucket{le="..."}] series
    (non-empty buckets plus [+Inf]), [_sum] and [_count]. Metric names
    are sanitized with
    {!prom_name}; when two raw names sanitize to the same string, later
    ones (in sorted snapshot order) get a [_2], [_3], … suffix so the
    exposition never repeats a series name. *)

val pp_summary : Format.formatter -> Registry.Snapshot.t -> unit
(** Aligned human-readable table of counters, gauges, and histogram
    percentile one-liners. *)

val summary : Registry.Snapshot.t -> string
