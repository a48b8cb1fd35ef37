(** Fleet-scale scenario generation (DESIGN.md §15).

    Parameterizes populations of hundreds to thousands of signers over
    tens of verifiers, with client churn, zone outages and time-varying
    load profiles — all as {e pure deterministic functions of virtual
    time}. The module never touches the event loop; a driver
    ([Dsig_deploy.Fleetrun], [bench fleet], the fault-matrix tests)
    queries it for "is signer [i] active at [t], at what rate, toward
    which verifiers" and spawns its own processes accordingly. Same
    spec + same seed reproduces the same fleet exactly. *)

(** Global load multiplier over time. [Diurnal] sweeps a raised cosine
    between 1x (trough) and [peak] (crest) with the given period;
    [Spike] applies [magnitude] inside one window and 1x outside. *)
type profile =
  | Steady
  | Diurnal of { period_us : float; peak : float }
  | Spike of { at_us : float; dur_us : float; magnitude : float }

type outage = { zone : int; from_us : float; until_us : float }
(** Every signer in [zone] is silent during [\[from_us, until_us)]. *)

type churn = { up_us : float; down_us : float }
(** Per-client square wave: up for [up_us], down for [down_us], with a
    per-signer hashed phase so the fleet churns asynchronously. *)

type spec = {
  signers : int;
  verifiers : int;
  zones : int;  (** nodes are assigned round-robin by index *)
  fanout : int;  (** verifiers per signer, 1..verifiers *)
  seed : int64;
  base_rate_per_sec : float;  (** per-signer offered load at 1x *)
  profile : profile;
  outages : outage list;
  churn : churn option;
}

val default_spec : spec
(** 100 signers, 10 verifiers, 4 zones, fanout 3, 200 ops/s per signer,
    steady, no outages, no churn. *)

type t

val create : spec -> t
(** @raise Invalid_argument on non-positive populations, a [fanout]
    outside [1..verifiers], out-of-range outage zones, empty outage
    windows, or non-positive rates/periods. *)

val spec : t -> spec

(** {1 Topology} *)

val zone_of_signer : t -> signer:int -> int

val verifiers_of : t -> signer:int -> int list
(** The [fanout] distinct verifier indices signer [signer] sends to —
    seed-stable, spread evenly across the verifier population. *)

(** {1 Load over time}

    All times are virtual microseconds (the simulator's clock). *)

val load : t -> now_us:float -> float
(** The profile's global multiplier at [now_us] (>= 1). *)

val active : t -> signer:int -> now_us:float -> bool
(** Whether the signer is up: not inside its zone's outage window and
    not churned out. *)

val rate : t -> signer:int -> now_us:float -> float
(** The signer's offered rate in ops/s: [base_rate_per_sec * load] when
    active, 0 otherwise. *)

val send_interval_us : t -> signer:int -> now_us:float -> float option
(** Microseconds between sends at the current rate; [None] when the
    signer is inactive (the driver should re-poll after a idle tick). *)

(** {1 Scenario catalog} *)

val scenario : ?signers:int -> ?verifiers:int -> ?seed:int64 -> string -> spec option
(** Named presets (DESIGN.md §15): ["steady"], ["kilo"] (>= 1000
    signers), ["diurnal"] (4x peak, 10 s period), ["spike4x"] (4x for
    2 s), ["zone_outage"], ["churny"]. [None] for unknown names. *)

val scenario_names : string list

val describe : t -> string
(** One human-readable line summarizing the spec. *)
