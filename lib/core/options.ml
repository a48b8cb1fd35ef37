module Tel = Dsig_telemetry.Telemetry

type store = { dir : string; fsync : bool; checkpoint_every : int }

let store ?(fsync = true) ?(checkpoint_every = 16) dir =
  if checkpoint_every < 0 then invalid_arg "Options.store: checkpoint_every must be >= 0";
  { dir; fsync; checkpoint_every }

type t = {
  telemetry : Tel.t;
  store : store option;
  translog : (signer:int -> op:string -> signature:string -> unit) option;
  sample_hook : (now_us:float -> unit) option;
  loadctl : Dsig_loadctl.Admission.t option;
}

let default =
  {
    telemetry = Tel.default;
    store = None;
    translog = None;
    sample_hook = None;
    loadctl = None;
  }

let with_telemetry telemetry t = { t with telemetry }
let with_store store t = { t with store = Some store }
let with_translog sink t = { t with translog = Some sink }
let with_sample_hook hook t = { t with sample_hook = Some hook }
let with_loadctl admission t = { t with loadctl = Some admission }
