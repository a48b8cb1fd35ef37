(* Fleet-scale scenario generation (DESIGN.md §15): pure deterministic
   math over virtual time. Nothing here touches the event loop — a
   driver (Dsig_deploy.Fleetrun, bench fleet, tests) asks "is signer i
   active at time t, at what rate, toward which verifiers" and builds
   its own processes from the answers. Same spec + same seed = same
   fleet, bit for bit. *)

type profile =
  | Steady
  | Diurnal of { period_us : float; peak : float }
  | Spike of { at_us : float; dur_us : float; magnitude : float }

type outage = { zone : int; from_us : float; until_us : float }
type churn = { up_us : float; down_us : float }

type spec = {
  signers : int;
  verifiers : int;
  zones : int;
  fanout : int;
  seed : int64;
  base_rate_per_sec : float;
  profile : profile;
  outages : outage list;
  churn : churn option;
}

type t = { spec : spec }

let default_spec =
  {
    signers = 100;
    verifiers = 10;
    zones = 4;
    fanout = 3;
    seed = 1L;
    base_rate_per_sec = 200.0;
    profile = Steady;
    outages = [];
    churn = None;
  }

let validate (s : spec) =
  let fail msg = invalid_arg (Printf.sprintf "Fleet.create: %s" msg) in
  if s.signers <= 0 then fail "signers must be positive";
  if s.verifiers <= 0 then fail "verifiers must be positive";
  if s.zones <= 0 then fail "zones must be positive";
  if s.fanout <= 0 || s.fanout > s.verifiers then fail "fanout must be in 1..verifiers";
  if not (Float.is_finite s.base_rate_per_sec) || s.base_rate_per_sec <= 0.0 then
    fail "base_rate_per_sec must be positive";
  (match s.profile with
  | Steady -> ()
  | Diurnal { period_us; peak } ->
      if period_us <= 0.0 then fail "diurnal period must be positive";
      if peak < 1.0 then fail "diurnal peak must be >= 1"
  | Spike { dur_us; magnitude; _ } ->
      if dur_us <= 0.0 then fail "spike duration must be positive";
      if magnitude < 1.0 then fail "spike magnitude must be >= 1");
  List.iter
    (fun o ->
      if o.zone < 0 || o.zone >= s.zones then fail "outage zone out of range";
      if o.until_us <= o.from_us then fail "outage window must be non-empty")
    s.outages;
  match s.churn with
  | None -> ()
  | Some c -> if c.up_us <= 0.0 || c.down_us <= 0.0 then fail "churn durations must be positive"

let create spec =
  validate spec;
  { spec }

let spec t = t.spec

(* splitmix64: the per-entity determinism engine. Every judgement about
   signer [i] hashes (seed, i, purpose) — stateless, order-independent,
   and stable across runs, which is what lets a thousand-node scenario
   be replayed exactly. *)
let mix (z0 : int64) : int64 =
  let open Int64 in
  let z = mul (logxor z0 (shift_right_logical z0 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let hash t ~entity ~purpose =
  let open Int64 in
  mix (add t.spec.seed (add (mul (of_int entity) 0x9e3779b97f4a7c15L) (of_int purpose)))

(* uniform float in [0, 1) from the top 53 bits *)
let unit_float h = Int64.to_float (Int64.shift_right_logical h 11) *. (1.0 /. 9007199254740992.0)

(* --- topology --- *)

let zone_of_signer t ~signer = ((signer mod t.spec.zones) + t.spec.zones) mod t.spec.zones

let verifiers_of t ~signer =
  (* [fanout] distinct verifiers, anchored at a seed-dependent offset so
     load spreads evenly but each signer's group is stable *)
  let v = t.spec.verifiers in
  let base = Int64.to_int (Int64.rem (hash t ~entity:signer ~purpose:1) (Int64.of_int v)) in
  let base = (base + v) mod v in
  List.init (min t.spec.fanout v) (fun k -> (base + k) mod v)

(* --- load profile --- *)

let pi = 4.0 *. atan 1.0

let load t ~now_us =
  match t.spec.profile with
  | Steady -> 1.0
  | Diurnal { period_us; peak } ->
      (* raised cosine between 1x (trough) and peak (crest) *)
      let phase = 2.0 *. pi *. (now_us /. period_us) in
      1.0 +. ((peak -. 1.0) *. 0.5 *. (1.0 -. cos phase))
  | Spike { at_us; dur_us; magnitude } ->
      if now_us >= at_us && now_us < at_us +. dur_us then magnitude else 1.0

(* --- availability: zone outages + client churn --- *)

let zone_out t ~zone ~now_us =
  List.exists (fun o -> o.zone = zone && now_us >= o.from_us && now_us < o.until_us) t.spec.outages

let churned_out t ~signer ~now_us =
  match t.spec.churn with
  | None -> false
  | Some { up_us; down_us } ->
      (* per-signer square wave with a hashed phase shift: each client
         is up for [up_us], down for [down_us], desynchronized across
         the fleet so churn is a steady background hum, not a wave *)
      let period = up_us +. down_us in
      let phase = unit_float (hash t ~entity:signer ~purpose:2) *. period in
      let pos = Float.rem (now_us +. phase) period in
      pos >= up_us

let active t ~signer ~now_us =
  (not (zone_out t ~zone:(zone_of_signer t ~signer) ~now_us)) && not (churned_out t ~signer ~now_us)

let rate t ~signer ~now_us =
  if active t ~signer ~now_us then t.spec.base_rate_per_sec *. load t ~now_us else 0.0

let send_interval_us t ~signer ~now_us =
  let r = rate t ~signer ~now_us in
  if r <= 0.0 then None else Some (1_000_000.0 /. r)

(* --- scenario catalog (DESIGN.md §15) --- *)

let scenario ?(signers = default_spec.signers) ?(verifiers = default_spec.verifiers)
    ?(seed = default_spec.seed) name =
  let base = { default_spec with signers; verifiers; seed } in
  match name with
  | "steady" -> Some base
  | "kilo" ->
      (* a thousand signers on few verifiers: the fan-in the loadctl
         plane exists for *)
      Some { base with signers = max signers 1000; zones = 8 }
  | "diurnal" ->
      Some { base with profile = Diurnal { period_us = 10_000_000.0; peak = 4.0 } }
  | "spike4x" ->
      Some
        {
          base with
          profile = Spike { at_us = 2_000_000.0; dur_us = 2_000_000.0; magnitude = 4.0 };
        }
  | "zone_outage" ->
      Some { base with outages = [ { zone = 0; from_us = 1_000_000.0; until_us = 3_000_000.0 } ] }
  | "churny" -> Some { base with churn = Some { up_us = 800_000.0; down_us = 200_000.0 } }
  | _ -> None

let scenario_names = [ "steady"; "kilo"; "diurnal"; "spike4x"; "zone_outage"; "churny" ]

let describe t =
  let s = t.spec in
  let profile =
    match s.profile with
    | Steady -> "steady"
    | Diurnal { period_us; peak } -> Printf.sprintf "diurnal(period=%.0fus peak=%.1fx)" period_us peak
    | Spike { at_us; dur_us; magnitude } ->
        Printf.sprintf "spike(at=%.0fus dur=%.0fus %.1fx)" at_us dur_us magnitude
  in
  Printf.sprintf
    "%d signers, %d verifiers, %d zones, fanout %d, %.0f ops/s/signer, %s, %d outage(s), churn %s"
    s.signers s.verifiers s.zones s.fanout s.base_rate_per_sec profile (List.length s.outages)
    (match s.churn with
    | None -> "off"
    | Some c -> Printf.sprintf "up=%.0fus/down=%.0fus" c.up_us c.down_us)
