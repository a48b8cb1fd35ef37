module Rtt = Dsig_util.Rtt
module Pacer = Dsig_util.Pacer
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric

(* Scheduler constants: the RFC-6298 estimator defaults, and one token
   bucket per signer refilling at 2000 re-announcements/s with a burst
   of 8. There is no attempt budget: a pair is re-sent until it is
   ACKed, dropped or evicted. *)
let rtt = Rtt.default
let rate_per_sec = 2_000.0
let burst = 8

(* One (batch, destination) pair awaiting an ACK. The transmission
   stamps feed RTT samples and spurious-resend detection. *)
type wait = {
  mutable next_due_us : float;
  mutable resent : bool; (* false = only the original was sent *)
  first_send_us : float;
  mutable last_send_us : float;
}

type entry = {
  ann : Batch.announcement;
  waiting : (int, wait) Hashtbl.t; (* dest -> wait *)
}

(* Per-destination link state (kept across batches): the RTO estimator,
   the smallest clean round trip ever observed — the floor used to flag
   re-sends that an already-in-flight ACK made redundant — and the last
   back-pressure level the destination advertised (Batch.Credit), which
   decays after a few round trips unless refreshed. *)
type dest_state = {
  mutable est : Rtt.t;
  mutable min_rtt_us : float;
  mutable pressure : int; (* 0..255; 0 = unloaded *)
  mutable pressure_until_us : float;
}

(* Event counts, kept apart from the tracker so that a registry probe
   can hold them without holding the tracker. *)
type counts = {
  mutable acked : int;
  mutable gave_up : int;
  mutable redundant : int;
  mutable samples : int;
  mutable dropped : int;
  mutable resent : int; (* pairs returned by [due] *)
  mutable served : int; (* pull requests answered by [Plane.deliver_request] *)
}

type t = {
  bucket : Pacer.t;
  retain : int;
  clock : unit -> float;
  entries : (int64, entry) Hashtbl.t;
  order : int64 Queue.t; (* FIFO retention *)
  dests : (int, dest_state) Hashtbl.t;
  counts : counts;
}

let create ?(retain = 64) ~clock () =
  if retain <= 0 then invalid_arg "Announce.create: retain must be positive";
  {
    bucket = Pacer.create ~burst ~rate_per_sec ~now:(clock ()) ();
    retain;
    clock;
    entries = Hashtbl.create 16;
    order = Queue.create ();
    dests = Hashtbl.create 8;
    counts =
      { acked = 0; gave_up = 0; redundant = 0; samples = 0; dropped = 0; resent = 0; served = 0 };
  }

let dest_state t dest =
  match Hashtbl.find_opt t.dests dest with
  | Some s -> s
  | None ->
      let s =
        { est = Rtt.init rtt; min_rtt_us = infinity; pressure = 0; pressure_until_us = 0.0 }
      in
      Hashtbl.add t.dests dest s;
      s

(* Back-pressure from the destination's admission controller. A level
   sticks for a few round trips (it is refreshed by every Credit frame
   while ACK traffic flows) and then decays to zero, so a verifier that
   went quiet — crashed, partitioned — does not stay "loaded" forever. *)
let pressure_ttl_rtos = 4.0

let note_pressure t ~dest ~pressure =
  let ds = dest_state t dest in
  let now = t.clock () in
  ds.pressure <- max 0 (min 255 pressure);
  ds.pressure_until_us <- now +. (pressure_ttl_rtos *. Rtt.rto_us rtt ds.est)

let live_pressure ds ~now = if now < ds.pressure_until_us then ds.pressure else 0

let pressure_level t ~dest =
  match Hashtbl.find_opt t.dests dest with
  | None -> 0
  | Some ds -> live_pressure ds ~now:(t.clock ())

(* A loaded destination's re-announce interval stretches by up to 4x at
   full pressure (255) — enough to halve-and-halve-again the probe rate
   into a shedding verifier, while per-destination round-robin in
   [due_adaptive] keeps other destinations served at full rate. *)
let pressure_factor ds ~now = 1.0 +. (3.0 *. float_of_int (live_pressure ds ~now) /. 255.0)

let track t (ann : Batch.announcement) ~dests =
  let now = t.clock () in
  let waiting = Hashtbl.create (List.length dests) in
  List.iter
    (fun dest ->
      let ds = dest_state t dest in
      Hashtbl.replace waiting dest
        {
          next_due_us = now +. (pressure_factor ds ~now *. Rtt.rto_us rtt ds.est);
          resent = false;
          first_send_us = now;
          last_send_us = now;
        })
    dests;
  let batch_id = ann.Batch.ann_batch_id in
  if not (Hashtbl.mem t.entries batch_id) then Queue.add batch_id t.order;
  Hashtbl.replace t.entries batch_id { ann; waiting };
  while Queue.length t.order > t.retain do
    let victim = Queue.pop t.order in
    (match Hashtbl.find_opt t.entries victim with
    | Some e -> t.counts.gave_up <- t.counts.gave_up + Hashtbl.length e.waiting
    | None -> ());
    Hashtbl.remove t.entries victim
  done

type ack_outcome = {
  settled : bool;
  redundant : bool;
  rtt_sample_us : float option;
  rto_us : float option;
}

let no_ack = { settled = false; redundant = false; rtt_sample_us = None; rto_us = None }

(* A re-send was redundant when the ACK lands closer to it than any
   clean round trip ever observed on that link: the acknowledgement must
   already have been in flight (it answers an earlier copy). *)
let redundancy_floor = 0.75

let ack t ~verifier ~batch_id =
  match Hashtbl.find_opt t.entries batch_id with
  | None -> no_ack
  | Some e -> (
      match Hashtbl.find_opt e.waiting verifier with
      | None -> no_ack
      | Some w ->
          let now = t.clock () in
          Hashtbl.remove e.waiting verifier;
          t.counts.acked <- t.counts.acked + 1;
          let ds = dest_state t verifier in
          let redundant =
            w.resent
            && ds.min_rtt_us < infinity
            && now -. w.last_send_us < redundancy_floor *. ds.min_rtt_us
          in
          if redundant then t.counts.redundant <- t.counts.redundant + 1;
          (* the first-transmission round trip bounds the link RTT from
             above; exact when the original copy was the one ACKed *)
          ds.min_rtt_us <- Float.min ds.min_rtt_us (now -. w.first_send_us);
          (* Karn's rule: the estimator only sees unambiguous samples
             (no retransmission in between) *)
          let sample =
            if w.resent then None
            else begin
              let rtt_us = now -. w.last_send_us in
              ds.est <- Rtt.sample rtt ds.est ~rtt_us;
              t.counts.samples <- t.counts.samples + 1;
              Some rtt_us
            end
          in
          {
            settled = true;
            redundant;
            rtt_sample_us = sample;
            rto_us = Some (Rtt.rto_us rtt ds.est);
          })

let lookup t ~batch_id =
  Option.map (fun e -> e.ann) (Hashtbl.find_opt t.entries batch_id)

(* A revoked or rotated-out batch must stop consuming pacing tokens the
   moment it dies: its pending transmissions are dropped outright (not
   counted as gave-up — nobody is waiting for them anymore). The entry
   itself stays retained so pull repair keeps serving previously issued
   signatures. *)
let drop t ~batch_id =
  match Hashtbl.find_opt t.entries batch_id with
  | None -> 0
  | Some e ->
      let n = Hashtbl.length e.waiting in
      Hashtbl.reset e.waiting;
      t.counts.dropped <- t.counts.dropped + n;
      n

let drop_before t ~batch_id =
  Hashtbl.fold
    (fun id e acc ->
      if Int64.compare id batch_id < 0 && Hashtbl.length e.waiting > 0 then
        acc + drop t ~batch_id:id
      else acc)
    t.entries 0

let due ?now t =
  let now = match now with Some n -> n | None -> t.clock () in
  (* collect expired timers, bucketed per destination so the token
     budget is spread round-robin across links instead of draining into
     whichever batch iterates first *)
  let by_dest : (int, (entry * wait) Queue.t) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ e ->
      let expired =
        Hashtbl.fold (fun dest w acc -> if now >= w.next_due_us then (dest, w) :: acc else acc)
          e.waiting []
      in
      List.iter
        (fun (dest, w) ->
          let q =
            match Hashtbl.find_opt by_dest dest with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.add by_dest dest q;
                q
          in
          Queue.add (e, w) q)
        expired)
    t.entries;
  let dests_order = Hashtbl.fold (fun d _ acc -> d :: acc) by_dest [] |> List.sort compare in
  let backed_off = Hashtbl.create 8 in
  let out = ref [] in
  let exhausted = ref false in
  let progress = ref true in
  (* round-robin: one item per destination per lap, while tokens last *)
  while (not !exhausted) && !progress do
    progress := false;
    List.iter
      (fun dest ->
        if not !exhausted then
          let q = Hashtbl.find by_dest dest in
          if not (Queue.is_empty q) then begin
            if Pacer.take t.bucket ~now then begin
              let e, w = Queue.pop q in
              let ds = dest_state t dest in
              (* one multiplicative backoff per destination per poll:
                 simultaneous expiries are one loss signal, not many *)
              if not (Hashtbl.mem backed_off dest) then begin
                ds.est <- Rtt.on_timeout rtt ds.est;
                Hashtbl.add backed_off dest ()
              end;
              w.resent <- true;
              w.last_send_us <- now;
              w.next_due_us <- now +. (pressure_factor ds ~now *. Rtt.rto_us rtt ds.est);
              out := (dest, e.ann) :: !out;
              t.counts.resent <- t.counts.resent + 1;
              progress := true
            end
            else exhausted := true
          end)
      dests_order
  done;
  !out

let pending t = Hashtbl.fold (fun _ e acc -> acc + Hashtbl.length e.waiting) t.entries 0

let pending_for t ~batch_id =
  match Hashtbl.find_opt t.entries batch_id with
  | None -> None
  | Some e -> Some (Hashtbl.length e.waiting)

let batches t = Hashtbl.length t.entries
let acked t = t.counts.acked
let gave_up t = t.counts.gave_up
let redundant t = t.counts.redundant
let samples t = t.counts.samples
let dropped t = t.counts.dropped

let srtt_us t ~dest =
  Option.bind (Hashtbl.find_opt t.dests dest) (fun ds -> Rtt.srtt_us ds.est)

let rto_us t ~dest =
  Option.map (fun ds -> Rtt.rto_us rtt ds.est) (Hashtbl.find_opt t.dests dest)

module Plane = struct
  type tracker = t

  type nonrec t = {
    id : int;
    mu : Mutex.t; (* guards [tracker] and [dest_gauges]; never held across a send *)
    tracker : tracker;
    tel : Tel.t;
    sample_hook : (now_us:float -> unit) option;
    g_unacked : Metric.Gauge.t;
    g_rtt : Metric.Gauge.t;
    g_rto : Metric.Gauge.t;
    g_pressure : Metric.Gauge.t;
    (* exporters have no label dimension, so per-destination series are
       name-suffixed (dsig_rtt_us_dest_<id>) and resolved lazily *)
    dest_gauges : (int, Metric.Gauge.t * Metric.Gauge.t) Hashtbl.t;
  }

  let create tel ~prefix ~id ?sample_hook () =
    let tracker = create ~clock:(fun () -> Tel.now tel) () in
    let c = tracker.counts in
    List.iter
      (fun (name, read) -> Tel.probe tel ~owner:tracker name read)
      [
        (prefix ^ "_acks_total", fun () -> c.acked);
        (prefix ^ "_announce_giveups_total", fun () -> c.gave_up);
        (prefix ^ "_reannounces_total", fun () -> c.resent);
        (prefix ^ "_batch_requests_total", fun () -> c.served);
        ("dsig_reannounce_redundant_total", fun () -> c.redundant);
      ];
    {
      id;
      mu = Mutex.create ();
      tracker;
      tel;
      sample_hook;
      g_unacked = Tel.gauge tel (prefix ^ "_unacked_announcements");
      g_rtt = Tel.gauge tel "dsig_rtt_us";
      g_rto = Tel.gauge tel "dsig_rto_us";
      g_pressure = Tel.gauge tel (prefix ^ "_peer_pressure");
      dest_gauges = Hashtbl.create 8;
    }

  let locked p f = Mutex.protect p.mu (fun () -> f p.tracker)

  (* The helpers below run under [mu]. *)

  let dest_gauges p dest =
    match Hashtbl.find_opt p.dest_gauges dest with
    | Some g -> g
    | None ->
        let gauge what = Tel.gauge p.tel (Printf.sprintf "dsig_%s_us_dest_%d" what dest) in
        let g = (gauge "rtt", gauge "rto") in
        Hashtbl.add p.dest_gauges dest g;
        g

  let sync_unacked p = Metric.Gauge.set p.g_unacked (float_of_int (pending p.tracker))

  let observe_rto p ~dest rto =
    Metric.Gauge.set p.g_rto rto;
    Metric.Gauge.set (snd (dest_gauges p dest)) rto

  let track p ann ~dests =
    locked p (fun tr ->
        track tr ann ~dests;
        sync_unacked p)

  let deliver_ack p (a : Batch.ack) =
    if a.Batch.ack_signer = p.id then
      locked p (fun tr ->
          let dest = a.Batch.ack_verifier in
          let o = ack tr ~verifier:dest ~batch_id:a.Batch.ack_batch in
          if o.settled then begin
            sync_unacked p;
            Option.iter
              (fun rtt ->
                Metric.Gauge.set p.g_rtt rtt;
                Metric.Gauge.set (fst (dest_gauges p dest)) rtt)
              o.rtt_sample_us;
            Option.iter (observe_rto p ~dest) o.rto_us
          end)

  let note_pressure p ~verifier ~pressure =
    locked p (fun tr -> note_pressure tr ~dest:verifier ~pressure);
    Metric.Gauge.set p.g_pressure (float_of_int pressure)

  let deliver_request p (r : Batch.request) =
    if r.Batch.req_signer <> p.id then None
    else
      locked p (fun tr ->
          match lookup tr ~batch_id:r.Batch.req_batch with
          | None ->
              Log.L.debug (fun m ->
                  m "signer %d: batch %Ld requested by %d but no longer retained" p.id
                    r.Batch.req_batch r.Batch.req_verifier);
              None
          | Some _ as ann ->
              tr.counts.served <- tr.counts.served + 1;
              ann)

  let step p ~now =
    (* outside [mu], like every send: the hook may snapshot the
       registry *)
    Option.iter (fun hook -> hook ~now_us:now) p.sample_hook;
    locked p (fun tr ->
        let due = due ~now tr in
        if due <> [] then begin
          List.iter (fun (dest, _) -> Option.iter (observe_rto p ~dest) (rto_us tr ~dest)) due;
          sync_unacked p
        end;
        due)

  let drop_before p ~batch_id =
    locked p (fun tr ->
        ignore (drop_before tr ~batch_id);
        sync_unacked p)

  let pending_for p ~batch_id = locked p (fun tr -> pending_for tr ~batch_id)
  let pending p = locked p pending
  let reannounced p = p.tracker.counts.resent
  let requests_served p = p.tracker.counts.served
end
