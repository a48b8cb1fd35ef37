(** The auditable key-value server of §6 as a simnet deployment: clients
    sign each encoded {!Store.Command} (hint = server), the server
    verifies {e before} executing (through a pluggable verifier),
    appends to its audit log, executes on a real {!Store}, and replies.

    This is the executable-logic counterpart of the modeled harness in
    [bench/app_harness.ml]: requests run the actual store and audit
    code, so integration tests exercise the full §6 pipeline over a
    modeled network. *)

type verify_fn = client:int -> msg:string -> signature:string -> bool

type t

val start :
  sim:Dsig_simnet.Sim.t ->
  net:(string * string) Dsig_simnet.Net.t ->
  node:int ->
  verify:verify_fn ->
  ?verify_cost_us:(signature:string -> float) ->
  ?exec_cost_us:float ->
  ?telemetry:Dsig_telemetry.Telemetry.t ->
  unit ->
  t
(** Starts the server process on [net] node [node]. Messages are
    [(encoded_command, signature)] pairs; replies are the rendered
    {!Store.Reply} sent back to the requesting node. Compute costs are
    charged to the server's core resource.

    [telemetry] (default {!Dsig_telemetry.Telemetry.default}) publishes
    {!requests_rejected} as [dsig_kv_rejected_total], served plus
    rejected as [dsig_kv_requests_total], and the [dsig_kv_serve_us]
    request-latency histogram (virtual time). *)

val store : t -> Store.t
val audit_log : t -> Dsig_audit.Audit.t
val requests_served : t -> int

val requests_rejected : t -> int
(** Requests refused: malformed commands and those failing the audit
    log's admission (bad signature, non-monotonic sequence number). *)

(** {1 Client helper} *)

val request :
  net:(string * string) Dsig_simnet.Net.t ->
  me:int ->
  server:int ->
  sign:(msg:string -> string) ->
  seq:int ->
  Store.Command.t ->
  string
(** Sign, send, await the reply (blocking; call from a simnet process). *)
