(** A real TCP transport for DSig: length-framed messages over loopback
    or LAN sockets, with a receiver thread per peer. Together with
    {!Dsig.Runtime} (background plane on its own domain) this turns the
    reproduction into an actually deployable signing service — the
    commodity-Ethernet stand-in for the paper's RDMA messaging.

    Frame format: 4-byte little-endian payload length, 1 tag byte
    ([`A]nnouncement / [`S]igned message / [`K] ack / [`R] batch
    request / [`C]heckpoint), payload. *)

type message =
  | Announcement of Dsig.Batch.announcement
  | Signed of { msg : string; signature : string }
  | Control of Dsig.Batch.control
      (** Announcement-plane reliability traffic: verifier→signer ACKs
          (single or batched) and pull-repair batch requests. *)
  | Checkpoint of string
      (** A gossiped transparency-log checkpoint (tag ['C']): the
          payload is an encoded [Dsig_translog.Checkpoint], carried
          opaquely — receivers decode and feed it to their monitor.
          Empty payloads are rejected by the decoder. *)
  | Revoke of string
      (** A signed key-revocation record (tag ['V']): the payload is an
          encoded [Dsig_keylife.Revocation], carried opaquely —
          receivers verify the authority signature and enforce it on
          their own directory. Empty payloads are rejected by the
          decoder. *)
  | Traced of Dsig_telemetry.Trace_ctx.t * message
      (** A message carrying its signature's 18-byte trace context
          (tag ['T'] + {!Dsig_telemetry.Trace_ctx.encode} + inner frame)
          so the receiver can close cross-node lifecycle spans
          ({!Dsig.Verifier.check}'s [ctx]). Nesting is rejected by the
          decoder. *)

type server

val listen :
  ?telemetry:Dsig_telemetry.Telemetry.t -> port:int -> on_message:(message -> unit) -> unit -> server
(** Bind 127.0.0.1:[port] (0 picks an ephemeral port) and spawn an
    accept thread; every inbound frame invokes [on_message] from a
    receiver thread — callbacks must be thread-safe.

    [telemetry] (default {!Dsig_telemetry.Telemetry.default}) receives
    [dsig_tcpnet_frames_received_total] / [dsig_tcpnet_bytes_received_total]
    / [dsig_tcpnet_decode_errors_total] /
    [dsig_tcpnet_reader_errors_total] counters and the
    [dsig_tcpnet_frame_bytes] size histogram, shared by every receiver
    thread (the cells are domain-safe, so no increment is lost).

    A receiver thread that dies for any reason — peer reset, oversized
    frame, an exception escaping [on_message] — closes only its own
    connection and bumps [dsig_tcpnet_reader_errors_total]; the server
    keeps accepting. *)

val port : server -> int
val stop : server -> unit
(** Close the listener, shut down every peer connection and wait for
    the receiver threads to exit. Each accepted descriptor is closed
    exactly once, by its own receiver thread, so [stop] never closes a
    descriptor number the process has since reused. Must not be called
    from [on_message], and returns only once every callback in flight
    has returned. *)

type client

val connect : ?telemetry:Dsig_telemetry.Telemetry.t -> port:int -> unit -> client
(** [telemetry] receives [dsig_tcpnet_frames_sent_total] /
    [dsig_tcpnet_bytes_sent_total] and [dsig_tcpnet_frame_bytes]. *)

val send : client -> message -> unit
val close : client -> unit

val encode_message : message -> string
val decode_message : string -> (message, string) result
(** Exposed for tests. *)

val really_write : Unix.file_descr -> string -> unit
val really_read : Unix.file_descr -> int -> string
(** EINTR-resuming full write/read (exposed for {!Scrape}).
    @raise End_of_file when the peer closes mid-read. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame: the payload's u32 LE length, then the payload, in
    one {!really_write}. *)

(** A lossy/corrupting wrapper around {!client} for fault testing: each
    {!Faulty.send} drops the frame with probability [drop], otherwise
    duplicates it with probability [duplicate], and independently
    bit-flips each sent copy's encoded payload with probability
    [corrupt] (the receiver counts the flip as a decode error and drops
    it). Deterministic under [seed]. *)
module Faulty : sig
  type t

  val wrap :
    ?drop:float -> ?corrupt:float -> ?duplicate:float -> seed:int64 -> client -> t

  val send : t -> message -> unit
  val dropped : t -> int
  val corrupted : t -> int
end
