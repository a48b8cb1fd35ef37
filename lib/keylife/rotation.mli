(** Zero-downtime rotation coordinator.

    Drives a {!Dsig.Signer}'s two-step rotation protocol
    ({!Dsig.Signer.stage_next_batch} then {!Dsig.Signer.cutover}) with
    an announce-and-wait policy: the staged batch's announcement is
    multicast when staged, and the coordinator cuts over once every
    destination has acknowledged it — or once [max_wait_us] elapses, so
    a partitioned verifier cannot hold the rotation hostage (it will
    pull-repair the new batch on its first slow path instead).

    Crash safety lives below this module, in the store's journaled
    propose/confirm records: a crash at any point mid-rotation recovers
    to exactly one live generation. The coordinator only decides
    {e when} to confirm. *)

type t

type progress =
  | Idle  (** no rotation in flight *)
  | Staged of { epoch : int; batch_id : int64; unacked : int }
      (** staged, waiting on [unacked] announcement acknowledgements *)
  | Cut_over of int  (** cutover happened (now serving this epoch) *)

val create : ?max_wait_us:float -> clock:(unit -> float) -> Dsig.Signer.t -> t
(** [max_wait_us] (default 50 ms) bounds how long a staged rotation
    waits for acknowledgements before cutting over anyway. [clock]
    supplies "now" in the same time base the deployment's telemetry
    uses (wall or virtual µs).
    @raise Invalid_argument if [max_wait_us] is negative. *)

val start : t -> int * int64
(** Stage the next-generation batch (journal, announce) and start the
    ACK wait. Returns the staged [(epoch, batch_id)].
    @raise Invalid_argument if a rotation is already staged. *)

val step : t -> progress
(** Poll once: cut over if every destination acknowledged or the wait
    expired, otherwise report what is still outstanding. Also detects a
    cutover the signer performed implicitly (default queue drained
    mid-rotation) and reports it as {!Cut_over}. Drive this from the
    same loop as {!Dsig.Signer.background_step}. *)

val in_flight : t -> bool
