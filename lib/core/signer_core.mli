(** What the two signer flavours share: the in-simulation {!Signer} and
    the threaded {!Runtime} differ only in who runs the background plane
    and how its key queue is guarded. Both seal batches, queue their
    prepared keys, sign with one step and answer the control plane
    through the same {!t}. *)

type prepared = {
  key : Onetime.t;
  batch_id : int64;
  proof : Dsig_merkle.Merkle.proof;
  root_sig : string;
}
(** A one-time key ready to sign: its batch's Merkle proof and EdDSA
    root signature are already attached (Alg. 1 line 11). *)

type t = {
  cfg : Config.t;
  id : int;
  eddsa : Dsig_ed25519.Eddsa.secret_key;
  tel : Dsig_telemetry.Telemetry.t;
  store : Dsig_store.Keystate.t option;  (** the key-state journal; it has its own lock *)
  recovery : Dsig_store.Keystate.report option;
  translog : (signer:int -> op:string -> signature:string -> unit) option;
  pool : Dsig_util.Domain_pool.t option;
  plane : Announce.Plane.t;  (** the announcement control plane *)
  mutable next_batch : int64;  (** touched only by the plane that seals batches *)
  batches : int Atomic.t;
  signatures : int Atomic.t;
  h_sign : Dsig_telemetry.Metric.Histogram.t;
  g_queue : Dsig_telemetry.Metric.Gauge.t;
}

val create :
  Config.t -> id:int -> eddsa:Dsig_ed25519.Eddsa.secret_key -> prefix:string -> Options.t -> t
(** Opens the journal when [options] carries a store: it is checked
    against {!Config.fingerprint}, and the batch counter resumes past
    every id a previous incarnation might have used (DESIGN.md §10).
    Raises [Failure] if the store cannot be opened or belongs to another
    configuration.

    [prefix] ([dsig_signer] or [dsig_runtime]) names the flavour's
    series: the [<prefix>_batches_total] and [<prefix>_signatures_total]
    probes, the [<prefix>_sign_us] histogram, the
    [<prefix>_queue_depth] gauge (each flavour moves it itself), and the
    plane's series ({!Announce.Plane.create}). *)

val next_batch_id : t -> int64

val make_batch : t -> rng:Dsig_util.Rng.t -> batch_id:int64 -> Batch.t
(** {!Batch.make} with the signer's key and pool, then the journal's
    seal record: no key of the batch can sign before it. *)

val queue_keys : t -> Batch.t -> prepared Queue.t -> unit
(** Push every key of the batch, in index order, and count the batch. *)

val encode : t -> prepared -> nonce:string -> string -> string
(** The signature body for any {!Config.hbss} and its wire encoding.
    Pure given its inputs, so {!Signer.sign_many} runs it on worker
    domains with pre-drawn nonces. *)

val reserve : t -> prepared -> unit
(** Journal the key's reservation. *)

val finish :
  t -> ?span:Dsig_telemetry.Tracer.span -> ?t1:float -> prepared -> msg:string -> wire:string ->
  t0:float -> unit
(** The accounting after a signature is built: translog sink, count,
    [<prefix>_sign_us] from [t0] to [t1] (default: now, after the
    sink), tracer span ([span], default [sign_fast]) and lifecycle sign
    event. *)

val sign :
  t -> ?span:Dsig_telemetry.Tracer.span -> prepared -> nonce:string -> t0:float -> string -> string
(** One sign step: {!reserve}, {!encode}, {!finish}. *)

val trace_ctx : t -> prepared -> t0:float -> Dsig_telemetry.Trace_ctx.t
