(** The [@smoke] perf gate: one table row per metric pinned in
    [BENCH_smoke.json], and the judge that holds a fresh snapshot to
    the committed baseline row by row.

    A row says whether its metric is {e measured} (on this host's
    clock, judged against a relative band around the baseline) or
    {e deterministic} (a count, a virtual-clock figure or a figure fixed
    by construction, which must equal the baseline exactly) and which
    direction is better. [bench/smoke_check.exe] is the only gate that
    reads it. It fails on:
    - a metric in either snapshot with no row;
    - a row absent from either snapshot;
    - a non-finite value (the snapshot writer's [null]);
    - a deterministic row that moved at all: re-pin on purpose;
    - a measured row beyond its band in the worse direction.

    A measured row beyond its band in the better direction passes as
    {e improved}. *)

type direction = Lower_better | Higher_better

type kind =
  | Measured of float  (** relative band: 0.5 passes up to ±50% of the baseline *)
  | Deterministic  (** exact *)

type row = { name : string; kind : kind; direction : direction }

val table : row list
(** Every pinned metric, one row each. *)

type verdict = Within | Improved | Regressed | Moved | Non_finite | Missing | No_row

val verdict_name : verdict -> string
(** Gate failures render in capitals; [Moved] and [No_row] say what to do. *)

type entry = {
  e_name : string;
  e_row : row option;  (** [None] = no row in {!table} *)
  e_base : float option;  (** [None] = not in the baseline *)
  e_fresh : float option;  (** [None] = not in the fresh snapshot *)
  e_verdict : verdict;
}

val compare_metrics : baseline:(string * float) list -> fresh:(string * float) list -> entry list
(** One entry per name in {!table}, [baseline] or [fresh], sorted by
    name. A zero baseline gates like any other. *)

val failures : entry list -> entry list
(** The entries that fail the gate: all but [Within] and [Improved]. *)

val describe : entry -> string
(** One line naming the metric, its kind and direction, the baseline,
    the fresh value, the band and the verdict. *)

val parse_snapshot : string -> ((string * float) list, string) result
(** Extract the [metrics] object from a [BENCH_*.json] body; a [null]
    value comes back as [nan]. *)

val meta_of_snapshot : string -> (string * string) list
(** Best-effort [meta] block extraction (empty if absent): the
    provenance the snapshot writer stamps. *)
