(** Point-to-point network model.

    A message from [src] to [dst] of [bytes] experiences, in order:
    serialization on the sender's NIC ([bytes]/tx bandwidth, a shared
    FIFO resource — the bottleneck of the paper's one-to-many experiment
    §8.5), a propagation plus per-byte software delay (the ~1 µs "+ ~0.6
    ns/B" slope measured in §8.2), and serialization on the receiver's
    NIC (the inbound bottleneck of §8.6). Bandwidth is configurable
    per-node to reproduce the 10 Gbps-capped experiments. *)

type 'a t

val create :
  Sim.t ->
  nodes:int ->
  ?latency_us:float ->
  ?per_byte_us:float ->
  ?bandwidth_gbps:float ->
  unit ->
  'a t
(** Defaults: latency 1.0 µs, per-byte software delay 0.0006 µs/B,
    bandwidth 100 Gbps on every NIC. *)

val sim : 'a t -> Sim.t

val set_faults :
  'a t ->
  ?drop:float ->
  ?duplicate:float ->
  ?corrupt:float ->
  ?reorder:float ->
  ?reorder_delay_us:float ->
  ?mutate:('a -> 'a option) ->
  seed:int64 ->
  unit ->
  unit
(** Inject message-level faults at delivery time: each message is
    dropped with probability [drop] and (if not dropped) delivered twice
    with probability [duplicate]. Each surviving copy is then corrupted
    with probability [corrupt] — the payload is passed through [mutate]
    (typically: serialize, flip a bit, re-decode), and a [None] result
    (or an absent [mutate]) loses the copy, modeling a frame the
    receiver's decoder rejects. Finally, with probability [reorder] the
    copy is held back by a uniform extra delay in
    [\[0, reorder_delay_us\]] (default 20 µs) so later traffic overtakes
    it. Deterministic under [seed]. Applies to {!send}/{!send_async};
    {!inject} bypasses faults (local timers must fire). *)

val clear_faults : 'a t -> unit
(** Lift all injected faults; subsequent sends deliver normally. *)

val send : 'a t -> src:int -> dst:int -> bytes:int -> 'a -> unit
(** Blocking send: returns once the sender NIC finished serializing
    (backpressure); delivery happens asynchronously after propagation
    and receiver-side serialization. *)

val send_async : 'a t -> src:int -> dst:int -> bytes:int -> 'a -> unit
(** Fire-and-forget variant usable outside a process context. *)

val inject : 'a t -> node:int -> src:int -> 'a -> unit
(** Deliver a payload into a node's inbox immediately, bypassing the
    network model — local timer events and self-messages. *)

val recv : 'a t -> node:int -> int * int * 'a
(** Blocking receive: [(src, bytes, payload)]. *)

val recv_opt : 'a t -> node:int -> (int * int * 'a) option
val pending : 'a t -> node:int -> int
