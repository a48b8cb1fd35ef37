(** Named-metric registry: each name maps to one find-or-create cell.

    [counter]/[gauge]/[histogram] return the same cell for the same
    name, whichever domain asks; the cells are domain-safe ({!Metric}),
    so a handle may be used from any domain. {!probe} publishes a count
    its owner already keeps, instead of a shadow copy in a counter;
    {!gauge_probe} does the same for a level.

    Resolution takes a mutex and a hashtable lookup — do it once at
    component-creation time and cache the handle, not per operation.

    A name must keep one kind for the lifetime of the registry;
    re-registering it as a different kind raises [Invalid_argument]. *)

type t

val create : unit -> t

val counter : t -> string -> Metric.Counter.t
val gauge : t -> string -> Metric.Gauge.t
val histogram : t -> string -> Metric.Histogram.t

val probe : t -> owner:'a -> string -> (unit -> int) -> unit
(** [probe t ~owner name read] publishes [read ()] as the counter
    [name]: every {!snapshot} calls [read], under the registry's mutex,
    and sums it with the other cells and probes of that name. [read]
    should be one load from a record [owner] mutates in place, and must
    not capture [owner]. The probe lives as long as [owner] (a heap
    value, or [Gc.finalise_last] raises [Invalid_argument]): once [owner] is
    collected, the next snapshot adds [read]'s last reading to the
    name's counter cell and drops the probe, so the total never goes
    backwards. Raises [Invalid_argument] if [name] is a gauge or
    histogram. *)

val gauge_probe : t -> owner:'a -> string -> (unit -> float) -> unit
(** [gauge_probe t ~owner name read] publishes [read ()] as the gauge
    [name], read at every {!snapshot} as {!probe} is, and summed with
    the other cells and probes of that name: a level its owner can
    compute on demand (a queue's depth) instead of a gauge moved on
    every operation. Dropped once [owner] is collected. Raises
    [Invalid_argument] if [name] is a counter or histogram. *)

module Snapshot : sig
  type value =
    | Counter of int  (** summed across cells and probes of the name *)
    | Gauge of float  (** summed across merged snapshots *)
    | Histogram of Metric.Histogram.snapshot

  type nonrec t = (string * value) list
  (** Sorted by name, one entry per registered name. *)

  val merge : t -> t -> t
  (** Pointwise merge (sum counters and gauges, merge histograms);
      names present on one side only pass through. Associative, with
      [[]] as identity — snapshots from independent registries (e.g.
      one per simulated party) can be folded together. *)

  val find : t -> string -> value option
end

val snapshot : t -> Snapshot.t
(** One value per name. Concurrent updates are not blocked, so the
    snapshot may lag them by a few operations; no value is torn. *)
