(** One configuration record for the DSig component constructors.

    {!Signer.create}, {!Runtime.create} and {!Verifier.create} used to
    grow one optional argument per knob ([?telemetry ?store ...]); they
    now take a single [?options] record built by piping {!default}
    through the [with_*] combinators:

    {[
      let opts =
        Options.default
        |> Options.with_telemetry tel
        |> Options.with_store (Options.store "keys")
      in
      let signer = Signer.create cfg ~id ~eddsa ~rng ~options:opts ~verifiers ()
    ]}

    Each component reads the fields that concern it and ignores the
    rest, so one record configures a whole deployment ({!System},
    [Dsig_deploy.Deploy]). There is one signer: {!Runtime.create}
    hands its options to the {!Signer} it drives on a domain, so every
    field means the same whether the background plane runs inline or
    on that domain (the metric prefix is {!Signer.create}'s [?prefix],
    not an option). This is the only constructor surface — the
    pre-[Options] [create_legacy] shims and per-knob arguments are
    gone. *)

(** {1 Durable key state} *)

(** Where and how a signer persists its key-state journal (see
    {!Dsig_store.Keystate}). Kept as a plain record so [Options] can be
    built without touching the store library. *)
type store = {
  dir : string;  (** store directory, created on first open *)
  fsync : bool;  (** [false] skips physical fsync (tests, benches) *)
  checkpoint_every : int;  (** snapshot cadence in sealed batches; 0 = never *)
}

val store : ?fsync:bool -> ?checkpoint_every:int -> string -> store
(** Defaults: fsync on, checkpoint every 16 seals.
    @raise Invalid_argument on a negative checkpoint cadence. *)

(** {1 The options record} *)

type t = {
  telemetry : Dsig_telemetry.Telemetry.t;  (** metric/lifecycle/clock bundle *)
  store : store option;  (** [None] (default) = in-memory key state only *)
  translog : (signer:int -> op:string -> signature:string -> unit) option;
      (** transparency sink: called once per issued signature, after the
          wire encoding exists, possibly from several domains at once, so
          it must be domain-safe ([None] (default) = no transparency
          log) *)
  sample_hook : (now_us:float -> unit) option;
      (** observability tick: called at the top of every control-plane
          [step ~now] with that step's clock ([None] (default) = no
          hook) *)
  loadctl : Dsig_loadctl.Admission.t option;
      (** verifier-side admission controller ([None] (default) = admit
          everything): work is classified fast-verify / slow-repair /
          control and may be shed before any crypto runs, and ACKs are
          upgraded to [Batch.Credit] frames carrying the pressure byte
          (see DESIGN.md §15) *)
}

val default : t
(** {!Dsig_telemetry.Telemetry.default} and every optional plane off.
    Retention (64 batches, {!Announce.create}), pull-repair pacing
    ({!Verifier.create}) and re-announce pacing are not configurable:
    signers schedule re-announcements by per-destination ACK round trips
    (see {!Announce}), and verifiers ACK every admitted announcement
    immediately. *)

val with_telemetry : Dsig_telemetry.Telemetry.t -> t -> t

val with_store : store -> t -> t
(** Persist signer key state under [store.dir]: each batch id is
    journaled and synced when the batch is sealed, before any of its
    keys can sign, so a restarted signer never seals a batch id twice
    and never reuses a one-time key. The foreground sign writes nothing
    (see DESIGN.md §10). *)

val with_translog : (signer:int -> op:string -> signature:string -> unit) -> t -> t
(** Record every signature the signer issues in a transparency log. The
    sink receives the signer id, the signed message and the full wire
    signature, synchronously on the signing path; it is a plain closure
    (not a [Dsig_translog.Translog.t]) so the core stays free of a
    dependency on the log — deployments pass
    [fun ~signer ~op ~signature -> ignore (Translog.append log ~signer ~op ~signature)]
    (see DESIGN.md §11). Foreground signs may come from several domains
    at once (see {!Signer}), and each calls the sink on its own domain,
    so the sink must be domain-safe: [Translog.append] takes its log's
    mutex. The sink must not raise; an exception here fails the sign
    call. *)

val with_sample_hook : (now_us:float -> unit) -> t -> t
(** Piggyback an observability tick on the component's control-plane
    pump: every {!Control_plane.step} call invokes the hook
    first with its [~now]. Deployments use this to drive a
    [Dsig_timeseries.Sampler] (and its alerter) off whatever clock
    already paces re-announcements — simnet virtual time under
    [Dsig_deploy], wall time in [examples/tcp_service] — without a
    dedicated timer thread. The hook runs on the stepping thread and
    must not raise; keep it cheap (samplers throttle themselves via
    [interval_us]). *)

val with_loadctl : Dsig_loadctl.Admission.t -> t -> t
(** Attach an admission controller to the verifier built from these
    options. One controller per verifier: sharing an instance across
    verifiers pools their admitted rate, which is almost never what a
    deployment wants (per-node capacity differs). *)
