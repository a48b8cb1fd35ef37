(** A serially-reusable resource (a CPU core, a NIC direction): callers
    occupy it for a duration and are served in arrival order. Models the
    queueing that produces every saturation knee in the paper's
    throughput figures. *)

type t

val create : ?name:string -> Sim.t -> t

val use : t -> float -> unit
(** [use r d] occupies [r] for [d] µs: the caller resumes once all work
    enqueued earlier plus its own [d] has elapsed. *)

val busy_until : t -> float
val utilization : t -> float
(** Fraction of elapsed virtual time the resource spent busy. *)
