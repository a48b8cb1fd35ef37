(** Perf-trajectory comparison: a fresh bench snapshot against the
    committed baseline, with per-metric tolerance bands.

    Metrics are matched by name across two [BENCH_*.json] snapshots.
    Direction comes from naming conventions ([*_us] latencies are
    lower-better, [*_ops_per_sec] / [*_speedup*] are higher-better,
    everything else is informational and never gates); the verdict is
    relative to a tolerance band around the baseline. A {e regression}
    (outside the band in the bad direction) or a {e missing} metric
    fails the gate; an {e improvement} or a {e new} metric is reported
    but passes — new metrics just mean the baseline wants
    regenerating. This backs both [bench/trajectory.exe] (the
    [@trajectory] alias) and [smoke_check]'s baseline mode. *)

type direction = Lower_better | Higher_better | Informational

val direction_name : direction -> string

val direction_of_name : string -> direction
(** [*_ops_per_sec] / [*_speedup*] → higher-better; [*_us] →
    lower-better; otherwise informational. *)

type verdict = Within | Improved | Regressed | New_metric | Missing_metric

val verdict_name : verdict -> string
(** Gate failures render loudly: ["REGRESSED"] / ["MISSING"]. *)

type entry = {
  e_name : string;
  e_direction : direction;
  e_base : float option;  (** [None] = not in the baseline *)
  e_fresh : float option;  (** [None] = not in the fresh snapshot *)
  e_delta_pct : float option;  (** (fresh - base) / base, percent *)
  e_tolerance : float;  (** the band this entry was judged against *)
  e_verdict : verdict;
}

val default_tolerance : float
(** [0.5] — a metric may move 50% before gating. Wide on purpose: the
    smoke bench runs 50 ops on shared CI hardware, and a gate that
    cries wolf gets deleted. Tighten per-metric via [tolerances]. *)

val bench_tolerances : (string * float) list
(** The bands both bench gates pass as [tolerances]: wider for
    fsync-bound store latency (it swings >50% run to run on shared
    hardware) and for figures that quantize coarsely at [--ops 50]. *)

val compare_metrics :
  ?tolerance:float ->
  ?tolerances:(string * float) list ->
  baseline:(string * float) list ->
  fresh:(string * float) list ->
  unit ->
  entry list
(** One entry per name present on either side, sorted by name.
    [tolerances] overrides the global band for specific metrics.
    @raise Invalid_argument on a non-positive tolerance. *)

val failures : entry list -> entry list
(** The entries that fail the gate: [Regressed] and [Missing_metric]. *)

val render : entry list -> string
(** Fixed-width human table, one line per entry. *)

val parse_snapshot : string -> ((string * float) list, string) result
(** Extract the [metrics] object from a [BENCH_*.json] body. *)

val meta_of_snapshot : string -> (string * string) list
(** Best-effort [meta] block extraction (empty if absent) — used to
    label comparison reports with when/where each side was measured. *)
