(** A minimal HTTP/1.0 scrape endpoint for a telemetry bundle — the
    live-observability face of the TCP service. One thread accepts
    loopback connections; each GET is answered from a fresh registry
    snapshot and the connection closed (Prometheus-style pull).

    Routes:
    - [/metrics] — Prometheus text exposition of every counter, gauge
      and histogram in the bundle (including the [dsig_lifecycle_*]
      series once lifecycle tracing is enabled);
    - [/metrics.json] — the full JSON export: counters, gauges,
      histograms and the lifecycle plane summary;
    - [/trace] — the recent completed lifecycle spans
      ([{"lifecycle":{..},"spans":[..]}]), newest last;
    - [/planes] — a plain-text per-plane table
      ([<plane> <count> <p50> <p99> <p999>] lines preceded by
      [started]/[completed]/[full] counts), the format [dsig_cli top]
      polls;
    - [/health] — per-plane SLO verdicts from
      {!Dsig_telemetry.Lifecycle.plane_within} against the configured
      budgets: a JSON body
      [{"status":..,"planes":[{"plane":..,"n":..,"p99_us":..,
      "budget_us":..,"ok":..},..]}] served with 200 when every plane is
      within budget and 503 otherwise (a plane with no observations
      fails — "no data" is not "healthy");
    - [/timeseries] — the sampler's ring-buffered metric history
      ({!Dsig_timeseries.Sampler.to_json}), only when a sampler was
      passed to {!start} (404 otherwise);
    - [/alerts] — the SLO burn-rate alerter's current states and recent
      transitions ({!Dsig_timeseries.Alert.to_json}), only when an
      alerter was passed to {!start} (404 otherwise);
    - [/loadctl] — the admission controller's live state
      ({!Dsig_loadctl.Admission.to_json}: adapted rate, congested flag,
      pressure byte, per-class offered/shed counts), only when a
      controller was passed to {!start} (404 otherwise).

    Extra routes can be mounted at {!start} (e.g. the transparency log's
    [/checkpoint] — [Dsig_translog.Serve.checkpoint_route]); they are
    consulted before the built-ins.

    Anything else is a 404. Requests above 8 KiB or without a parseable
    GET line get a 400. Every response — including 400/404/500 — carries
    a status line, a Content-Type and a correct Content-Length, so
    clients parse errors exactly like successes. *)

type t

val start :
  ?telemetry:Dsig_telemetry.Telemetry.t ->
  ?health_budgets_us:(Dsig_telemetry.Lifecycle.plane * float) list ->
  ?timeseries:Dsig_timeseries.Sampler.t ->
  ?alerts:Dsig_timeseries.Alert.t ->
  ?loadctl:Dsig_loadctl.Admission.t ->
  ?routes:(string -> (string * string * string) option) list ->
  port:int ->
  unit ->
  t
(** Bind 127.0.0.1:[port] (0 picks an ephemeral port) and serve
    [telemetry] (default {!Dsig_telemetry.Telemetry.default}). Records
    [dsig_scrape_requests_total] / [dsig_scrape_errors_total] on the
    same bundle. [health_budgets_us] sets the [/health] per-plane p99
    budgets (defaults: sign and verify 10 ms, announce and end-to-end
    100 ms). [timeseries] / [alerts] / [loadctl] mount the
    [/timeseries], [/alerts] and [/loadctl] routes; the server only
    reads them (something else — usually an
    {!Dsig.Options.with_sample_hook} tick — drives the sampling). [routes] mounts extra handlers, each mapping a path to
    [Some (status, content-type, body)] or [None] to decline; they are
    tried in order before the built-in routes, and one that raises is
    answered with a well-formed 500 rather than a dropped connection. *)

val port : t -> int

val stop : t -> unit
(** Close the listener and join the accept thread. *)

val fetch : port:int -> path:string -> (string, string) result
(** Blocking loopback GET: [Ok body] on a 200, [Error] with the status
    line or errno otherwise. Used by tests and [dsig_cli top]. *)
