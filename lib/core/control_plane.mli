(** The signer-side announcement control plane, under the names
    transports use. Every {!Signer} owns one {!Announce.Plane}
    ({!of_runtime} reaches the one of a {!Runtime}'s signer); these are
    plain aliases of it, plus the frame dispatcher {!deliver}. None of
    them sends anything: they return what to send, so any transport
    (simnet loops, TCP servers, in-process loopback) drives any signer
    through one code path. *)

type t = Announce.Plane.t

val of_signer : Signer.t -> t
val of_runtime : Runtime.t -> t

val deliver_ack : t -> Batch.ack -> unit
val deliver_request : t -> Batch.request -> Batch.announcement option
val note_pressure : t -> verifier:int -> pressure:int -> unit
val step : t -> now:float -> (int * Batch.announcement) list
(** See {!Announce.Plane}. *)

val deliver : t -> Batch.control -> (int * Batch.announcement) list
(** Dispatch a decoded control frame: ACKs are absorbed, [Credit]
    frames additionally record the sender's
    back-pressure byte, requests yield the
    [(destination, announcement)] repair replies for the caller to
    send. *)
