module Retry = Dsig_util.Retry
module Tel = Dsig_telemetry.Telemetry

type store = { dir : string; group_commit : int; fsync : bool; checkpoint_every : int }

let store ?(group_commit = 8) ?(fsync = true) ?(checkpoint_every = 16) dir =
  if group_commit <= 0 then invalid_arg "Options.store: group_commit must be positive";
  if checkpoint_every < 0 then invalid_arg "Options.store: checkpoint_every must be >= 0";
  { dir; group_commit; fsync; checkpoint_every }

type ack_delay = { cap_us : float; srtt_fraction : float }

type t = {
  telemetry : Tel.t;
  retain : int;
  request_policy : Retry.policy;
  store : store option;
  ack_delay : ack_delay option;
  translog : (signer:int -> op:string -> signature:string -> unit) option;
  parallel : Dsig_util.Domain_pool.t option;
  sample_hook : (now_us:float -> unit) option;
  loadctl : Dsig_loadctl.Admission.t option;
}

let default =
  {
    telemetry = Tel.default;
    retain = 64;
    request_policy = Retry.policy ~base_us:500.0 ~max_attempts:8 ();
    store = None;
    ack_delay = None;
    translog = None;
    parallel = None;
    sample_hook = None;
    loadctl = None;
  }

let with_telemetry telemetry t = { t with telemetry }

let with_retain retain t =
  if retain <= 0 then invalid_arg "Options.with_retain: retain must be positive";
  { t with retain }

let with_request_policy request_policy t = { t with request_policy }
let with_store store t = { t with store = Some store }

let with_ack_delay ?(srtt_fraction = 0.25) ~cap_us t =
  if cap_us < 0.0 then invalid_arg "Options.with_ack_delay: cap_us must be non-negative";
  if srtt_fraction < 0.0 then
    invalid_arg "Options.with_ack_delay: srtt_fraction must be non-negative";
  { t with ack_delay = Some { cap_us; srtt_fraction } }

let with_translog sink t = { t with translog = Some sink }
let with_parallel pool t = { t with parallel = Some pool }
let with_sample_hook hook t = { t with sample_hook = Some hook }
let with_loadctl admission t = { t with loadctl = Some admission }
