(* Drive a Fleet scenario against real DSig signers and verifiers on
   the discrete-event simulator (DESIGN.md §15). The crypto is real and
   runs in zero virtual time; what the simulation models is the part
   overload is made of — per-verifier inbox queues, a fixed service
   time per verification, wire latency — so admission control sees the
   queueing delay it would see in a real deployment, while a thousand
   signers stay affordable in one process. *)

open Dsig_simnet
module Eddsa = Dsig_ed25519.Eddsa
module Rng = Dsig_util.Rng
module Tel = Dsig_telemetry.Telemetry
module Admission = Dsig_loadctl.Admission

type phase = {
  p_from_us : float;
  p_until_us : float;
  p_offered : int;
  p_accepted : int;
  p_false_accepts : int;
  p_offered_verify : int;
  p_shed_verify : int;
  p_offered_repair : int;
  p_shed_repair : int;
  p_sojourn_p99_us : float;
}

type result = {
  duration_us : float;
  offered : int;
  accepted : int;
  false_accepts : int;
  rejected : int;
  in_flight : int;
  admission : Admission.stats;
  goodput_ops_per_sec : float;
  shed_ratio : float;
  sojourn_p99_us : float;
  peak_pressure : int;
  phases : phase list;
}

(* one signed message in flight to a verifier's inbox *)
type item = { enq_us : float; msg : string; wire : string; genuine : bool }

let percentile samples p =
  match samples with
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      a.(min (n - 1) (int_of_float (Float.of_int (n - 1) *. p)))

let sum_admission admissions =
  Array.fold_left
    (fun acc a ->
      let s = Admission.stats a in
      {
        Admission.offered_verify = acc.Admission.offered_verify + s.Admission.offered_verify;
        shed_verify = acc.Admission.shed_verify + s.Admission.shed_verify;
        offered_repair = acc.Admission.offered_repair + s.Admission.offered_repair;
        shed_repair = acc.Admission.shed_repair + s.Admission.shed_repair;
        offered_control = acc.Admission.offered_control + s.Admission.offered_control;
        shed_control = acc.Admission.shed_control + s.Admission.shed_control;
      })
    {
      Admission.offered_verify = 0;
      shed_verify = 0;
      offered_repair = 0;
      shed_repair = 0;
      offered_control = 0;
      shed_control = 0;
    }
    admissions

let run ?(latency_us = 5.0) ?announce_latency_us ?(announce_drop = 0.0) ?(service_us = 50.0)
    ?slow_service_us ?(params = Admission.default_params) ?(duration_us = 1_000_000.0) ?phase_us
    ?(corrupt_every = 0) ?(reannounce_poll_us = 20_000.0) ?(idle_poll_us = 20_000.0) cfg fleet =
  let spec = Fleet.spec fleet in
  let announce_latency_us = Option.value announce_latency_us ~default:latency_us in
  let slow_service_us = Option.value slow_service_us ~default:(4.0 *. service_us) in
  let phase_us = Option.value phase_us ~default:duration_us in
  if duration_us <= 0.0 then invalid_arg "Fleetrun.run: duration_us must be positive";
  if service_us < 0.0 || latency_us < 0.0 then
    invalid_arg "Fleetrun.run: times must be non-negative";
  let sim = Sim.create () in
  let telemetry = Tel.create ~clock:(fun () -> Sim.now sim) () in
  let nv = spec.Fleet.verifiers and ns = spec.Fleet.signers in
  let master = Rng.create spec.Fleet.seed in
  (* node ids: verifiers are 0..nv-1, signers nv..nv+ns-1, so ACK /
     Credit frames route back by their ack_signer field alone *)
  (* lossy announce plane: each signer->verifier announcement delivery
     is dropped with probability [announce_drop]; the ACK/re-announce
     machinery retries, and until it succeeds the verifier classifies
     that batch's signatures as Repair (slow path). The pull-repair
     reply path stays reliable. *)
  let announce_rng = Rng.create (Int64.add spec.Fleet.seed 0xa99L) in
  let announce_delivered () = announce_drop <= 0.0 || Rng.float announce_rng 1.0 >= announce_drop in
  let keys = Array.init ns (fun _ -> Eddsa.generate (Rng.split master)) in
  let pki = Dsig.Pki.create () in
  Array.iteri (fun i (_, pk) -> Dsig.Pki.bind pki ~id:(nv + i) ~epoch:0 pk) keys;
  let admissions = Array.init nv (fun _ -> Admission.create ~params ~telemetry ()) in
  let inboxes : item Channel.t array = Array.init nv (fun _ -> Channel.create sim) in
  let signers = Array.make ns None in
  let signer_of node = Option.get signers.(node - nv) in
  (* verifier -> signer reliability traffic (ACKs, Credit pressure,
     pull-repair requests) rides the modeled wire; repair replies come
     back as announcements after another latency hop *)
  let verifiers =
    Array.init nv (fun v ->
        let options =
          Dsig.Options.default
          |> Dsig.Options.with_telemetry telemetry
          |> Dsig.Options.with_loadctl admissions.(v)
        in
        let control c =
          let target = Dsig.Batch.control_target c in
          if target >= nv && target < nv + ns then
            Sim.schedule sim ~delay:latency_us (fun () ->
                let cp, vref = signer_of target in
                Dsig.Control_plane.deliver cp c
                |> List.iter (fun (dest, ann) ->
                       if dest >= 0 && dest < nv then
                         Sim.schedule sim ~delay:announce_latency_us (fun () ->
                             ignore (Dsig.Verifier.deliver vref.(dest) ann))))
        in
        Dsig.Verifier.create cfg ~id:v ~pki ~options ~control ())
  in
  (* resolve the forward reference inside [control] above: signers hold
     (control_plane, verifier array) pairs *)
  let signer_handles = Array.make ns None in
  let () =
    Array.iteri
      (fun i (sk, _) ->
        let node = nv + i in
        let group = Fleet.verifiers_of fleet ~signer:i in
        let send ~dest ann =
          if dest >= 0 && dest < nv && announce_delivered () then
            Sim.schedule sim ~delay:announce_latency_us (fun () ->
                ignore
                  (Dsig.Verifier.deliver ~sent_us:(Sim.now sim -. announce_latency_us)
                     verifiers.(dest) ann))
        in
        let options = Dsig.Options.default |> Dsig.Options.with_telemetry telemetry in
        let s =
          Dsig.Signer.create cfg ~id:node ~eddsa:sk ~rng:(Rng.split master) ~send ~options
            ~verifiers:group ()
        in
        signer_handles.(i) <- Some s;
        signers.(i) <- Some (Dsig.Control_plane.of_signer s, verifiers))
      keys
  in
  let signer i = Option.get signer_handles.(i) in
  (* prime every queue so t=0 announcements are in flight before the
     first client op *)
  for i = 0 to ns - 1 do
    Dsig.Signer.background_fill (signer i)
  done;
  (* --- accounting --- *)
  let offered = ref 0 and accepted = ref 0 and false_accepts = ref 0 and rejected = ref 0 in
  (* client sends scheduled on the wire but not yet in an inbox *)
  let on_wire = ref 0 in
  let sojourns = ref [] and all_sojourns = ref [] in
  let peak_pressure = ref 0 in
  let phases = ref [] in
  let phase_from = ref 0.0 in
  let phase_base = ref (0, 0, 0, sum_admission admissions) in
  let close_phase ~until_us =
    let o0, a0, f0, adm0 = !phase_base in
    let adm1 = sum_admission admissions in
    phases :=
      {
        p_from_us = !phase_from;
        p_until_us = until_us;
        p_offered = !offered - o0;
        p_accepted = !accepted - a0;
        p_false_accepts = !false_accepts - f0;
        p_offered_verify = adm1.Admission.offered_verify - adm0.Admission.offered_verify;
        p_shed_verify = adm1.Admission.shed_verify - adm0.Admission.shed_verify;
        p_offered_repair = adm1.Admission.offered_repair - adm0.Admission.offered_repair;
        p_shed_repair = adm1.Admission.shed_repair - adm0.Admission.shed_repair;
        p_sojourn_p99_us = percentile !sojourns 0.99;
      }
      :: !phases;
    phase_from := until_us;
    phase_base := (!offered, !accepted, !false_accepts, adm1);
    all_sojourns := List.rev_append !sojourns !all_sojourns;
    sojourns := []
  in
  (* --- verifier service loops --- *)
  Array.iteri
    (fun v vref ->
      Sim.spawn sim (fun () ->
          while true do
            let it = Channel.recv inboxes.(v) in
            let sojourn = Float.max 0.0 (Sim.now sim -. it.enq_us) in
            Dsig.Verifier.observe_sojourn vref ~sojourn_us:sojourn;
            let verdict = Dsig.Verifier.check vref ~msg:it.msg it.wire in
            peak_pressure := max !peak_pressure (Admission.pressure admissions.(v));
            (match verdict with
            | (Dsig.Verifier.Fast | Dsig.Verifier.Slow) when it.genuine ->
                incr accepted;
                sojourns := sojourn :: !sojourns
            | Dsig.Verifier.Fast | Dsig.Verifier.Slow -> incr false_accepts
            | Dsig.Verifier.Rejected _ -> incr rejected
            | Dsig.Verifier.Shed -> ());
            (* shed work is turned away before crypto and costs no
               service time — that is the mechanism that keeps the
               queue from collapsing; slow-path verifications cost
               extra (inline EdDSA) *)
            match verdict with
            | Dsig.Verifier.Shed -> ()
            | Dsig.Verifier.Slow -> Sim.sleep slow_service_us
            | Dsig.Verifier.Fast | Dsig.Verifier.Rejected _ -> Sim.sleep service_us
          done))
    verifiers;
  (* --- client load --- *)
  let corrupt_rng = Rng.create (Int64.add spec.Fleet.seed 0x5eedL) in
  let opno = ref 0 in
  for i = 0 to ns - 1 do
    let group = Array.of_list (Fleet.verifiers_of fleet ~signer:i) in
    let crng = Rng.split master in
    Sim.spawn sim (fun () ->
        (* stagger start phases and jitter intervals +-25%: every client
           shares the same deterministic rate function, and without
           per-client phase noise the whole fleet fires in lockstep,
           turning 50% average utilization into full-burst queues *)
        (match Fleet.send_interval_us fleet ~signer:i ~now_us:0.0 with
        | Some dt -> Sim.sleep (Rng.float crng dt)
        | None -> ());
        let k = ref 0 in
        while Sim.now sim < duration_us do
          match Fleet.send_interval_us fleet ~signer:i ~now_us:(Sim.now sim) with
          | None -> Sim.sleep idle_poll_us
          | Some dt ->
              Sim.sleep (dt *. (0.75 +. (0.5 *. Rng.float crng 1.0)));
              if Sim.now sim < duration_us && Fleet.active fleet ~signer:i ~now_us:(Sim.now sim)
              then begin
                incr opno;
                let msg = Printf.sprintf "fleet-%d-%d" i !k in
                let wire = Dsig.Signer.sign (signer i) msg in
                (* tamper with the MESSAGE, not the wire: a flipped wire
                   bit can land in a non-semantic byte and legitimately
                   still verify, but a signature must never cover a
                   message it did not sign — any [true] here is a
                   forgery *)
                let genuine, msg =
                  if corrupt_every > 0 && !opno mod corrupt_every = 0 then
                    (false, Deploy.flip_random_bit corrupt_rng msg)
                  else (true, msg)
                in
                let v = group.(!k mod Array.length group) in
                incr k;
                incr offered;
                incr on_wire;
                Sim.schedule sim ~delay:latency_us (fun () ->
                    decr on_wire;
                    Channel.send inboxes.(v) { enq_us = Sim.now sim; msg; wire; genuine })
              end
        done)
  done;
  (* --- control-plane pumps --- *)
  Sim.spawn sim (fun () ->
      while true do
        for i = 0 to ns - 1 do
          let cp, _ = Option.get signers.(i) in
          Dsig.Control_plane.step cp ~now:(Tel.now telemetry)
          |> List.iter (fun (dest, ann) ->
                 if dest >= 0 && dest < nv && announce_delivered () then
                   Sim.schedule sim ~delay:announce_latency_us (fun () ->
                       ignore
                         (Dsig.Verifier.deliver ~sent_us:(Sim.now sim -. announce_latency_us)
                            verifiers.(dest) ann)))
        done;
        Sim.sleep reannounce_poll_us
      done);
  (* phase roller *)
  if phase_us < duration_us then
    Sim.spawn sim (fun () ->
        while true do
          Sim.sleep phase_us;
          (* a roller tick landing exactly on [duration_us] would leave
             the final close below a zero-width phase — let it handle
             the boundary instead *)
          if Sim.now sim < duration_us then close_phase ~until_us:(Sim.now sim)
        done);
  Sim.run ~until:duration_us sim;
  close_phase ~until_us:duration_us;
  let adm = sum_admission admissions in
  let offered_adm = Admission.offered_total adm and shed_adm = Admission.shed_total adm in
  {
    duration_us;
    offered = !offered;
    accepted = !accepted;
    false_accepts = !false_accepts;
    rejected = !rejected;
    in_flight = Array.fold_left (fun n inbox -> n + Channel.length inbox) !on_wire inboxes;
    admission = adm;
    goodput_ops_per_sec = float_of_int !accepted /. (duration_us /. 1.0e6);
    shed_ratio = (if offered_adm = 0 then 0.0 else float_of_int shed_adm /. float_of_int offered_adm);
    sojourn_p99_us = percentile !all_sojourns 0.99;
    peak_pressure = !peak_pressure;
    phases = List.rev !phases;
  }
