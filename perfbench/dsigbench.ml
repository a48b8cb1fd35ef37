(* One DSig benchmark workload in one process. Every figure is taken on
   the monotonic clock around calls into the public API ([Runtime],
   [Verifier], [Tcpnet]); nothing is read from a cost model or a virtual
   clock. The last line of stdout is one JSON object:

     {"correct": .., "attempted": .., "failed": .., "metrics": {name: value},
      "layers": {..}}

   perfbench/run.py attaches the units declared in BENCHMARK.json and
   keeps the metrics of the requested mode. See perfbench/README.md for
   the workloads and what each metric means. *)

open Dsig
module Tcp = Dsig_tcpnet.Tcpnet
module Tel = Dsig_telemetry.Telemetry
module Registry = Dsig_telemetry.Registry
module Histogram = Dsig_telemetry.Metric.Histogram
module Eddsa = Dsig_ed25519.Eddsa
module Rng = Dsig_util.Rng
module Wots = Dsig_hbss.Wots
module Merkle = Dsig_merkle.Merkle
module Hash = Dsig_hashes.Hash

let now_us = Dsig_telemetry.Tracer.mono_clock_us

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  (* nearest rank; 0 when empty *)
  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)) in
      s.(max 0 (min (t.n - 1) (rank - 1)))
    end

  let median t = percentile t 50.0

  (* 0 when empty *)
  let mean t =
    let sum = ref 0.0 in
    for i = 0 to t.n - 1 do
      sum := !sum +. t.a.(i)
    done;
    if t.n = 0 then 0.0 else !sum /. float_of_int t.n
end

(* Spans recorded by this file around its calls into each layer (traced
   runs only). A replayed call is a child of the op span it explains; a
   span's self time is its duration minus its children's. *)
module Span = struct
  type t = { id : int; parent : int; name : string; t0 : float; t1 : float }

  let all = ref []
  let count = ref 0

  let record ?(parent = -1) name t0 t1 =
    let id = !count in
    incr count;
    all := { id; parent; name; t0; t1 } :: !all;
    id

  let time ?parent name f =
    let t0 = now_us () in
    let r = f () in
    let t1 = now_us () in
    (record ?parent name t0 t1, r)

  let dur s = s.t1 -. s.t0

  let durations name =
    let s = Samples.create () in
    List.iter (fun sp -> if sp.name = name then Samples.add s (dur sp)) !all;
    s

  (* For every [parent_name] span with replayed children: its duration,
     each child layer's share (0 when that call did not happen for this
     op) and the self time left over. *)
  let breakdown parent_name child_names =
    let kids = Hashtbl.create 1024 in
    List.iter
      (fun sp ->
        if sp.parent >= 0 then
          Hashtbl.replace kids sp.parent (sp :: Option.value ~default:[] (Hashtbl.find_opt kids sp.parent)))
      !all;
    let total = Samples.create () and self = Samples.create () in
    let per = List.map (fun c -> (c, Samples.create ())) child_names in
    List.iter
      (fun p ->
        match Hashtbl.find_opt kids p.id with
        | Some ks when p.name = parent_name ->
            Samples.add total (dur p);
            let covered =
              List.fold_left
                (fun acc (c, smp) ->
                  let d = List.fold_left (fun a k -> if k.name = c then a +. dur k else a) 0.0 ks in
                  Samples.add smp d;
                  acc +. d)
                0.0 per
            in
            Samples.add self (dur p -. covered)
        | _ -> ())
      !all;
    (total, per, self)
end

type kind = Hinted | Unhinted | Tcp

let kind_of_string = function
  | "hinted" -> Hinted
  | "unhinted" -> Unhinted
  | "tcp" -> Tcp
  | s -> failwith ("unknown workload " ^ s)

(* Open-loop arrival rates, ops/s. They leave the foreground and the
   background plane enough headroom that losing part of the host to
   other tenants raises latency without tipping the loop into a backlog:
   at 200 and 60 ops/s half the runs of a ten-seed series did exactly
   that while the host was contended. A closed loop saturating the TCP
   service measured the host's spare CPU more than the service: its
   throughput and latency spread by a third between runs. *)
let rate = function Hinted -> 100.0 | Unhinted -> 30.0 | Tcp -> 100.0
let msg_bytes = 8
let setups = 9
let warmup_s = 1.0

(* Traced runs replay one genuine op in [replay_stride] right after its
   verdict, so the op and its replayed layers see the same host
   conditions; at most [max_replays] ops. *)
let replay_stride = function Hinted | Tcp -> 4 | Unhinted -> 2
let max_replays = 256

type acc = {
  sign_us : Samples.t;
  verify_us : Samples.t;
  e2e_us : Samples.t;
  late_us : Samples.t;
  deliver_us : Samples.t;
  send_us : Samples.t;
  net_us : Samples.t;
  batch_gen_us : Samples.t;
  mutable attempted : int;  (** every op run, warm-up included *)
  mutable offered : int;  (** ops inside the measurement window *)
  mutable wrong : int;  (** verdicts other than expected, replays included *)
  mutable unfinished : int;  (** ops with no verdict by the deadline *)
  mutable genuine_ok : int;  (** genuine ops accepted inside the window *)
  mutable last_verdict : float;
  mutable depth_min : int;
  mutable gate_waits : int;
  mutable genuine_seen : int;
  mutable replay_keys : Onetime.t list;  (** fresh one-time keys for sign replays *)
  mutable replay_us : float;  (** time spent replaying inside the window *)
}

let new_acc () =
  {
    sign_us = Samples.create ();
    verify_us = Samples.create ();
    e2e_us = Samples.create ();
    late_us = Samples.create ();
    deliver_us = Samples.create ();
    send_us = Samples.create ();
    net_us = Samples.create ();
    batch_gen_us = Samples.create ();
    attempted = 0;
    offered = 0;
    wrong = 0;
    unfinished = 0;
    genuine_ok = 0;
    last_verdict = 0.0;
    depth_min = max_int;
    gate_waits = 0;
    genuine_seen = 0;
    replay_keys = [];
    replay_us = 0.0;
  }

let flip msg (byte, mask) =
  let b = Bytes.of_string msg in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor mask));
  Bytes.to_string b

let tamper_spec rng = (Rng.int rng msg_bytes, 1 lsl Rng.int rng 8)

(* ---- registry reads (Telemetry.default, which Options.default uses) ---- *)

let find name = Registry.Snapshot.find (Tel.snapshot Tel.default) name
let counter name = match find name with Some (Registry.Snapshot.Counter n) -> n | _ -> 0

let histogram name =
  match find name with Some (Registry.Snapshot.Histogram h) -> h | _ -> Histogram.empty

(* ---- the system under test ---- *)

type sys = {
  kind : kind;
  cfg : Config.t;  (** signer *)
  vcfg : Config.t;  (** verifier *)
  sk : Eddsa.secret_key;
  pk : Eddsa.public_key;
  rt : Runtime.t;
  v : Verifier.t;
  delivered : (int64, unit) Hashtbl.t;
  mutable deferred : (string * string) list;  (** tampered ops awaiting an idle background plane *)
  mutable send : Tcp.message -> unit;
  mutable teardown : unit -> unit;
}

let threshold sys = sys.cfg.Config.queue_threshold
let bg_idle sys = Runtime.queue_depth sys.rt >= threshold sys

let wait_until ~what ~timeout_s f =
  let deadline = now_us () +. (timeout_s *. 1e6) in
  while not (f ()) do
    if now_us () > deadline then failwith ("timed out waiting for " ^ what);
    Unix.sleepf 0.0002
  done

(* lib/hashes/sha512.ml keeps a module-global scratch array, so two
   domains inside Ed25519 at once can corrupt each other's digests. The
   background domain runs Eddsa.sign only while its key queue is below
   the threshold, so an in-process caller about to run Ed25519 first
   waits for a full queue. *)
let wait_bg_idle sys acc ~measured =
  if not (bg_idle sys) then begin
    if measured then acc.gate_waits <- acc.gate_waits + 1;
    wait_until ~what:"an idle background plane" ~timeout_s:60.0 (fun () -> bg_idle sys)
  end

let traced = ref false

(* Library defaults throughout, except the unhinted verifier's EdDSA
   cache: with it on, nearly every slow-path verify would hit the cache
   and the workload would be [Hinted] again. [control] is the verifier's
   uplink to the signer's control plane. *)
let make_sys kind rng ~control =
  let cfg = Config.default in
  let vcfg = match kind with Unhinted -> { cfg with Config.eddsa_verify_cache = false } | _ -> cfg in
  let sk = Eddsa.secret_of_seed (Rng.bytes rng 32) in
  let pk = Eddsa.public_key sk in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let rt = Runtime.create cfg ~id:0 ~eddsa:sk ~seed:(Rng.next_u64 rng) () in
  let v = Verifier.create vcfg ~id:1 ~pki ?control:(control (Control_plane.of_runtime rt)) () in
  {
    kind;
    cfg;
    vcfg;
    sk;
    pk;
    rt;
    v;
    delivered = Hashtbl.create 64;
    deferred = [];
    send = (fun _ -> ());
    teardown = (fun () -> Runtime.shutdown rt);
  }

(* ---- traced-run replays ---- *)

(* Replay one verified op through the public layer functions as child
   spans of its Verifier.verify span, then its signing as children of its
   Runtime.sign span: a W-OTS+ sign with a fresh key, and the wire
   encoding, which must give back the runtime's exact bytes. [false]
   when a replayed step disagrees with the op's verdict. *)
let replay_op sys acc ~msg ~signature ~slow ~sign_span ~verify_span =
  let t0 = now_us () in
  let parent = verify_span in
  let ok =
    match snd (Span.time ~parent "wire.decode" (fun () -> Wire.decode sys.vcfg signature)) with
    | Error _ -> false
    | Ok w -> (
        match (sys.vcfg.Config.hbss, w.Wire.body, acc.replay_keys) with
        | Config.Wots p, Wire.Wots_body body, Onetime.Wots_key kp :: keys ->
            acc.replay_keys <- keys;
            let _, leaf =
              Span.time ~parent "hbss.recover" (fun () ->
                  Wots.recover_public_key_digest ~hash:sys.vcfg.Config.hash p ~public_seed:w.Wire.public_seed
                    body msg)
            in
            let _, root =
              Span.time ~parent "merkle.compute_root" (fun () -> Merkle.compute_root ~leaf w.Wire.batch_proof)
            in
            let root_msg = Batch.root_message ~signer_id:w.Wire.signer_id ~batch_id:w.Wire.batch_id ~root in
            let verified =
              (not slow)
              || snd (Span.time ~parent "ed25519.verify" (fun () -> Eddsa.verify sys.pk root_msg w.Wire.root_sig))
            in
            let parent = sign_span in
            ignore (Span.time ~parent "hbss.wots_sign" (fun () -> Wots.sign kp ~nonce:body.Wots.nonce msg));
            verified && snd (Span.time ~parent "wire.encode" (fun () -> Wire.encode sys.cfg w)) = signature
        | _ -> false)
  in
  if not ok then acc.wrong <- acc.wrong + 1;
  acc.replay_us <- acc.replay_us +. (now_us () -. t0)

(* the verifier's announcement work: rebuild the batch root, check its EdDSA signature *)
let replay_deliver sys acc (a : Batch.announcement) ~parent =
  let t0 = now_us () in
  let _, tree = Span.time ~parent "merkle.build" (fun () -> Merkle.build a.Batch.ann_leaves) in
  let msg = Batch.root_message ~signer_id:a.Batch.signer_id ~batch_id:a.Batch.ann_batch_id ~root:(Merkle.root tree) in
  if not (snd (Span.time ~parent "ed25519.verify" (fun () -> Eddsa.verify sys.pk msg a.Batch.root_sig))) then
    acc.wrong <- acc.wrong + 1;
  acc.replay_us <- acc.replay_us +. (now_us () -. t0)

let sampled sys acc =
  acc.genuine_seen <- acc.genuine_seen + 1;
  acc.genuine_seen mod replay_stride sys.kind = 0 && acc.genuine_seen / replay_stride sys.kind <= max_replays

(* The background plane: Batch.make against its parts, replayed as
   children of its span. *)
let replay_background sys rng ~rounds =
  for round = 1 to rounds do
    let batch_id = Int64.of_int (1_000_000 + round) in
    let mk, _ = Span.time "batch.make" (fun () -> Batch.make sys.cfg ~signer_id:0 ~batch_id ~eddsa:sys.sk ~rng) in
    let leaves =
      Array.init sys.cfg.Config.batch_size (fun _ ->
          let seed = Rng.bytes rng 32 in
          snd (Span.time ~parent:mk "hbss.keygen" (fun () -> Onetime.batch_leaf (Onetime.generate sys.cfg ~seed))))
    in
    let _, tree = Span.time ~parent:mk "merkle.build" (fun () -> Merkle.build leaves) in
    let root_msg = Batch.root_message ~signer_id:0 ~batch_id ~root:(Merkle.root tree) in
    ignore (Span.time ~parent:mk "ed25519.sign" (fun () -> Eddsa.sign sys.sk root_msg))
  done

(* median per-call time of [f], over groups of calls *)
let micro f =
  let s = Samples.create () in
  for _ = 1 to 25 do
    let t0 = now_us () in
    for _ = 1 to 40 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Samples.add s ((now_us () -. t0) /. 40.0)
  done;
  Samples.median s

(* ---- in-process delivery (hinted) ---- *)

let deliver_pending sys acc ~measured =
  match Runtime.drain_announcements sys.rt with
  | [] -> ()
  | anns ->
      wait_bg_idle sys acc ~measured;
      List.iter
        (fun (a : Batch.announcement) ->
          Runtime.track_announcement sys.rt a ~dests:[ 1 ];
          let t0 = now_us () in
          let ok = Verifier.deliver sys.v a in
          let t1 = now_us () in
          if not ok then acc.wrong <- acc.wrong + 1;
          Hashtbl.replace sys.delivered a.Batch.ann_batch_id ();
          if measured then begin
            Samples.add acc.deliver_us (t1 -. t0);
            if !traced then replay_deliver sys acc a ~parent:(Span.record "verifier.deliver" t0 t1)
          end)
        anns

(* A tampered op's root misses the cache, so rejecting it runs Ed25519
   inline; in [hinted] it waits, off the genuine ops' path, until the
   background plane is idle. *)
let flush_deferred sys acc ~force =
  if sys.deferred <> [] && (force || bg_idle sys) then begin
    if force then wait_bg_idle sys acc ~measured:false;
    List.iter
      (fun (msg, signature) -> if Verifier.verify sys.v ~msg signature then acc.wrong <- acc.wrong + 1)
      sys.deferred;
    sys.deferred <- []
  end

(* ---- loopback TCP deployment (examples/tcp_service.ml topology) ---- *)

type flight = {
  f_msg : string;  (** the message as signed *)
  f_sig : string;
  f_due : float;  (** the op's scheduled time *)
  f_sent : float;
  f_tampered : bool;
  f_measured : bool;
  f_sign_span : int;
}

(* shared by the main thread, which signs and sends, and the data
   connection's receiver thread, which verifies *)
type tcp = {
  mu : Mutex.t;
  inflight : (int64 * int, flight) Hashtbl.t;
  mutable measuring : bool;  (** inside the measurement window *)
}

let new_tcp () = { mu = Mutex.create (); inflight = Hashtbl.create 64; measuring = false }

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* The verifier service's handler for one signed frame, on the data
   connection's receiver thread. A tampered op's root misses the cache,
   so it first waits for an idle background plane, like every other
   in-process call that may run Ed25519. *)
let on_signed sys tcp acc ~msg ~signature =
  let recv = now_us () in
  let key = match Wire.peek_trace sys.cfg signature with Some (_, b, k) -> Some (b, k) | None -> None in
  let flight =
    locked tcp.mu (fun () ->
        match Option.bind key (Hashtbl.find_opt tcp.inflight) with
        | None -> None
        | Some f ->
            Hashtbl.remove tcp.inflight (Option.get key);
            Some f)
  in
  match flight with
  | None -> locked tcp.mu (fun () -> acc.wrong <- acc.wrong + 1)
  | Some f ->
      if f.f_tampered then wait_bg_idle sys acc ~measured:f.f_measured;
      let stats = Verifier.stats sys.v in
      let slow0 = stats.Verifier.slow in
      let v0 = now_us () in
      let ok = Verifier.verify sys.v ~msg signature in
      let v1 = now_us () in
      let slow = stats.Verifier.slow > slow0 in
      locked tcp.mu (fun () ->
          if ok = f.f_tampered then acc.wrong <- acc.wrong + 1
          else if f.f_measured && not f.f_tampered then begin
            acc.genuine_ok <- acc.genuine_ok + 1;
            acc.last_verdict <- v1;
            Samples.add acc.net_us (recv -. f.f_sent);
            Samples.add acc.verify_us (v1 -. v0);
            Samples.add acc.e2e_us (v1 -. f.f_due)
          end);
      if !traced && f.f_measured && (not f.f_tampered) && ok then begin
        let verify_span = Span.record "verifier.verify" v0 v1 in
        if sampled sys acc then
          replay_op sys acc ~msg:f.f_msg ~signature:f.f_sig ~slow ~sign_span:f.f_sign_span ~verify_span
      end

let tcp_setup rng acc tcp =
  let control_conn = ref None in
  (* the verifier's uplink: ACKs and pull-repair requests ride the control
     connection back to the signer *)
  let control _ = Some (fun m -> Option.iter (fun c -> Tcp.send c (Tcp.Control m)) !control_conn) in
  let sys = make_sys Tcp rng ~control in
  let cp = Control_plane.of_runtime sys.rt in
  let server =
    Tcp.listen ~port:0
      ~on_message:(function
        | Tcp.Announcement a ->
            let measured = tcp.measuring in
            wait_bg_idle sys acc ~measured;
            let t0 = now_us () in
            let ok = Verifier.deliver sys.v a in
            let t1 = now_us () in
            locked tcp.mu (fun () ->
                if not ok then acc.wrong <- acc.wrong + 1;
                if measured then Samples.add acc.deliver_us (t1 -. t0));
            if measured && !traced then replay_deliver sys acc a ~parent:(Span.record "verifier.deliver" t0 t1)
        | Tcp.Signed { msg; signature } -> on_signed sys tcp acc ~msg ~signature
        | _ -> ())
      ()
  in
  let conn = Tcp.connect ~port:(Tcp.port server) () in
  let conn_mu = Mutex.create () in
  let send m = locked conn_mu (fun () -> Tcp.send conn m) in
  let control_server =
    Tcp.listen ~port:0
      ~on_message:(function
        | Tcp.Control c -> Control_plane.deliver cp c |> List.iter (fun (_, a) -> send (Tcp.Announcement a))
        | _ -> ())
      ()
  in
  control_conn := Some (Tcp.connect ~port:(Tcp.port control_server) ());
  (* the re-announcement pump, on the 1 ms tick of examples/tcp_service.ml *)
  let stop = ref false in
  let pump =
    Thread.create
      (fun () ->
        while not !stop do
          Control_plane.step cp ~now:(now_us ()) |> List.iter (fun (_, a) -> send (Tcp.Announcement a));
          Thread.delay 0.001
        done)
      ()
  in
  sys.send <- send;
  (* The sockets stay open until the process exits: Tcpnet closes a
     peer's descriptor twice, and a later set-up's socket could take that
     number in between (see README.md). Once the pump stops, nothing
     writes to them. *)
  sys.teardown <-
    (fun () ->
      stop := true;
      Thread.join pump;
      Runtime.shutdown sys.rt);
  sys

let announce sys a =
  sys.send (Tcp.Announcement a);
  Runtime.track_announcement sys.rt a ~dests:[ 1 ]

(* Set-up is done when the key queue is full (the background plane
   idle) and the verifier holds every announcement made so far. *)
let setup kind rng acc tcp =
  let t0 = now_us () in
  let sys =
    match kind with
    | Tcp -> tcp_setup rng acc tcp
    | Hinted ->
        (* the co-located verifier ACKs straight into the signer's control plane *)
        make_sys kind rng ~control:(fun cp -> Some (fun c -> ignore (Control_plane.deliver cp c)))
    | Unhinted -> make_sys kind rng ~control:(fun _ -> None)
  in
  wait_until ~what:"a full key queue" ~timeout_s:60.0 (fun () -> bg_idle sys);
  (match kind with
  | Hinted -> deliver_pending sys acc ~measured:false
  | Unhinted -> ignore (Runtime.drain_announcements sys.rt)
  | Tcp ->
      let anns = Runtime.drain_announcements sys.rt in
      List.iter (announce sys) anns;
      let stats = Verifier.stats sys.v in
      wait_until ~what:"the initial announcements" ~timeout_s:60.0 (fun () ->
          stats.Verifier.announcements >= List.length anns));
  (sys, (now_us () -. t0) /. 1e6)

(* ---- workload loops ---- *)

type op = { due_us : float; msg : string; tamper : (int * int) option }

(* [n] ops over [span_us]: a Poisson process conditioned on [n]
   arrivals, one tampered op at a seeded index in every 100 *)
let make_ops rng ~n ~span_us =
  let cum = Array.make (n + 1) 0.0 in
  let total = ref 0.0 in
  for i = 0 to n do
    total := !total +. Rng.exponential rng ~mean:1.0;
    cum.(i) <- !total
  done;
  let tampered = Hashtbl.create 64 in
  for block = 0 to (n - 1) / 100 do
    Hashtbl.replace tampered ((block * 100) + Rng.int rng 100) ()
  done;
  Array.init n (fun i ->
      let msg = Rng.bytes rng msg_bytes in
      let tamper = if Hashtbl.mem tampered i then Some (tamper_spec rng) else None in
      { due_us = span_us *. cum.(i) /. cum.(n); msg; tamper })

(* per-batch generation time, from the runtime's own histogram sum,
   sampled whenever its batch count moves *)
let batch_poller sys acc =
  let state h = (Runtime.batches_generated sys.rt, h.Histogram.n, h.Histogram.total) in
  let last = ref (state (histogram "dsig_runtime_batch_gen_us")) in
  fun () ->
    let b0, n0, total0 = !last in
    if Runtime.batches_generated sys.rt > b0 then begin
      let h = histogram "dsig_runtime_batch_gen_us" in
      if h.Histogram.n > n0 then
        Samples.add acc.batch_gen_us ((h.Histogram.total -. total0) /. float_of_int (h.Histogram.n - n0));
      last := state h
    end

let note_depth sys acc =
  let d = Runtime.queue_depth sys.rt in
  if d < acc.depth_min then acc.depth_min <- d

(* Sleep until shortly before [due], then spin: a sleeping vCPU can take
   hundreds of µs to wake, and that would count as the system's latency. *)
let spin_us = 300.0

let wait_for sys due =
  let t = now_us () in
  if due -. t > spin_us then Unix.sleepf ((due -. t -. spin_us) /. 1e6);
  while now_us () < due do
    (* over TCP the receiver thread needs this domain's lock to verify *)
    if sys.kind = Tcp then Thread.yield () else Domain.cpu_relax ()
  done

(* Over TCP: register the op in flight and send it on the data
   connection; the receiver thread verifies it and takes its times. *)
let send_signed sys tcp acc op ~signature ~due ~s0 ~s1 ~measured =
  let genuine = op.tamper = None in
  let sign_span = if !traced && measured && genuine then Span.record "runtime.sign" s0 s1 else -1 in
  if measured && genuine then begin
    Samples.add acc.sign_us (s1 -. s0);
    note_depth sys acc
  end;
  let key = match Wire.peek_trace sys.cfg signature with Some (_, b, k) -> (b, k) | None -> (-1L, -1) in
  let sent = now_us () in
  locked tcp.mu (fun () ->
      Hashtbl.replace tcp.inflight key
        {
          f_msg = op.msg;
          f_sig = signature;
          f_due = due;
          f_sent = sent;
          f_tampered = not genuine;
          f_measured = measured;
          f_sign_span = sign_span;
        });
  let msg = match op.tamper with Some tp -> flip op.msg tp | None -> op.msg in
  sys.send (Tcp.Signed { msg; signature });
  if measured then Samples.add acc.send_us (now_us () -. sent)

(* Open loop: each op is Runtime.sign then Verifier.verify, started at
   its scheduled time or as soon as the previous op ends. In process the
   verify follows on this thread; over TCP it runs on the receiver. *)
let run_open sys tcp acc ops ~t0 ~deadline ~measured =
  let stats = Verifier.stats sys.v in
  let poll = batch_poller sys acc in
  Array.iter
    (fun op ->
      acc.attempted <- acc.attempted + 1;
      if measured then acc.offered <- acc.offered + 1;
      let due = t0 +. op.due_us in
      let t = now_us () in
      if t >= deadline then acc.unfinished <- acc.unfinished + 1
      else begin
        wait_for sys due;
        if measured then Samples.add acc.late_us (Float.max 0.0 (now_us () -. due));
        if sys.kind = Hinted then begin
          flush_deferred sys acc ~force:false;
          deliver_pending sys acc ~measured
        end;
        let s0 = now_us () in
        let signature = Runtime.sign sys.rt op.msg in
        let s1 = now_us () in
        (* announcements reach the verifier before the signatures they cover *)
        (match (sys.kind, Wire.peek_header signature) with
        | Hinted, Some (_, b) when not (Hashtbl.mem sys.delivered b) -> deliver_pending sys acc ~measured
        | _ -> ());
        match (op.tamper, sys.kind) with
        | _, Tcp ->
            (* the data connection is ordered, so announcements sent first arrive first *)
            List.iter (announce sys) (Runtime.drain_announcements sys.rt);
            send_signed sys tcp acc op ~signature ~due ~s0 ~s1 ~measured;
            if measured && !traced then poll ()
        | Some tp, Hinted -> sys.deferred <- (flip op.msg tp, signature) :: sys.deferred
        | tamper, _ ->
            let msg = match tamper with Some tp -> flip op.msg tp | None -> op.msg in
            (* every unhinted verify runs Ed25519 inline *)
            if sys.kind = Unhinted then wait_bg_idle sys acc ~measured;
            let slow0 = stats.Verifier.slow in
            let v0 = now_us () in
            let ok = Verifier.verify sys.v ~msg signature in
            let v1 = now_us () in
            let genuine = tamper = None in
            if ok <> genuine then acc.wrong <- acc.wrong + 1
            else if measured && genuine then begin
              acc.genuine_ok <- acc.genuine_ok + 1;
              acc.last_verdict <- v1;
              Samples.add acc.sign_us (s1 -. s0);
              Samples.add acc.verify_us (v1 -. v0);
              Samples.add acc.e2e_us (v1 -. due);
              note_depth sys acc;
              if !traced then begin
                poll ();
                let sign_span = Span.record "runtime.sign" s0 s1 in
                let verify_span = Span.record "verifier.verify" v0 v1 in
                if sampled sys acc then
                  replay_op sys acc ~msg ~signature ~slow:(stats.Verifier.slow > slow0) ~sign_span ~verify_span
              end
            end
      end)
    ops

(* wait for the verdicts still in flight; those missing at [deadline] are unfinished *)
let drain_tcp tcp acc ~deadline =
  while locked tcp.mu (fun () -> Hashtbl.length tcp.inflight > 0) && now_us () < deadline do
    Thread.delay 0.001
  done;
  locked tcp.mu (fun () ->
      acc.unfinished <- acc.unfinished + Hashtbl.length tcp.inflight;
      Hashtbl.reset tcp.inflight)

(* ---- output ---- *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

(* One layer table over the replayed ops: the parent's mean, each child
   layer's mean and the parent's mean self time, which is the part no
   replayed layer explains. Means, unlike medians, add up: the rows sum
   to the total. The parent's p50 over the same ops is beside them. *)
let table (total, rows, self) ~self_name =
  json_obj
    [
      ("total_mean_us", json_float (Samples.mean total));
      ("total_p50_us", json_float (Samples.median total));
      ("ops", string_of_int total.Samples.n);
      ( "rows",
        json_obj
          (List.map (fun (c, s) -> (c, json_float (Samples.mean s))) rows
          @ [ (self_name, json_float (Samples.mean self)) ]) );
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "hinted | unhinted | tcp");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measurement window");
      ("--trace", Arg.Set_int trace, "1 = traced run with per-layer replay");
    ]
    (fun a -> raise (Arg.Bad a))
    "dsigbench --workload W --seed N --seconds S --trace 0|1";
  let kind = kind_of_string !workload in
  (* a write to a closed socket raises EPIPE instead of killing the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  traced := !trace = 1;
  let rng = Rng.create (Int64.of_int !seed) in
  let acc = new_acc () and tcp = new_tcp () in
  let setup_s = Samples.create () in
  let sys, s = setup kind (Rng.split rng) acc tcp in
  Samples.add setup_s s;
  let input_rng = Rng.split rng and replay_rng = Rng.split rng in
  if !traced then
    acc.replay_keys <-
      List.init max_replays (fun _ -> Onetime.generate sys.cfg ~seed:(Rng.bytes replay_rng 32));
  let window_us = !seconds *. 1e6 in
  let grace_us = Float.max 2e6 (0.25 *. window_us) in
  let stats = Verifier.stats sys.v in
  let take_snap () =
    ( ( stats.Verifier.fast,
        stats.Verifier.slow,
        stats.Verifier.rejected,
        stats.Verifier.eddsa_cache_hits,
        stats.Verifier.requests_sent,
        stats.Verifier.acks_sent ),
      ( Runtime.batches_generated sys.rt,
        counter "dsig_runtime_sign_waits_total",
        counter "dsig_runtime_acks_total",
        counter "dsig_runtime_reannounces_total" ),
      ( counter "dsig_tcpnet_frames_sent_total",
        counter "dsig_tcpnet_bytes_sent_total",
        counter "dsig_tcpnet_decode_errors_total",
        counter "dsig_tcpnet_reader_errors_total" ),
      (histogram "dsig_runtime_batch_gen_us").Histogram.total,
      Gc.quick_stat () )
  in
  let before = ref (take_snap ()) in
  let t_start = ref 0.0 in
  let start_window () =
    before := take_snap ();
    t_start := now_us ();
    !t_start
  in
  let r = rate kind in
  let warm = make_ops input_rng ~n:(int_of_float (r *. warmup_s)) ~span_us:(warmup_s *. 1e6) in
  let t0 = now_us () in
  run_open sys tcp acc warm ~t0 ~deadline:(t0 +. (warmup_s *. 1e6) +. grace_us) ~measured:false;
  if kind = Tcp then drain_tcp tcp acc ~deadline:(now_us () +. grace_us);
  let ops = make_ops input_rng ~n:(int_of_float (r *. !seconds)) ~span_us:window_us in
  let t0 = start_window () in
  tcp.measuring <- true;
  run_open sys tcp acc ops ~t0 ~deadline:(t0 +. window_us +. grace_us) ~measured:true;
  if kind = Tcp then drain_tcp tcp acc ~deadline:(t0 +. window_us +. grace_us);
  tcp.measuring <- false;
  flush_deferred sys acc ~force:true;
  let wall_us = Float.max (now_us () -. !t_start) 1.0 in
  let ( (fast1, slow1, rej1, hits1, req1, acks1),
        (batches1, waits1, racks1, reann1),
        (frames1, bytes1, dec1, rerr1),
        bg1,
        gc1 ) =
    take_snap ()
  in
  let ( (fast0, slow0, rej0, hits0, req0, acks0),
        (batches0, waits0, racks0, reann0),
        (frames0, bytes0, dec0, rerr0),
        bg0,
        gc0 ) =
    !before
  in
  let unacked_end = Runtime.unacked_announcements sys.rt in
  (* genuine signatures verified per second, over the span in which they were verified *)
  let throughput =
    if acc.genuine_ok = 0 then 0.0 else float_of_int acc.genuine_ok /. ((acc.last_verdict -. !t_start) /. 1e6)
  in
  let spans_in_window = !Span.count in
  (* memory the system holds once it is idle again, with exactly S keys
     queued: once the window's signing stops the background plane
     refills the queue, and signing the surplus leaves it idle at S *)
  wait_until ~what:"an idle background plane" ~timeout_s:60.0 (fun () -> bg_idle sys);
  while Runtime.queue_depth sys.rt > threshold sys do
    ignore (Runtime.sign sys.rt "")
  done;
  Gc.full_major ();
  let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0 in
  let live_heap_mb = mib (Gc.stat ()).Gc.live_words in
  let layers = ref [] and layer_metrics = ref [] in
  if !traced then begin
    (* the background plane stays idle while these run Ed25519 *)
    replay_background sys replay_rng ~rounds:3;
    let cfg = sys.cfg in
    let n = match cfg.Config.hbss with Config.Wots p -> p.Dsig_hbss.Params.Wots.n | _ -> 18 in
    let x_n = Rng.bytes replay_rng n and x64 = Rng.bytes replay_rng 64 and x128 = Rng.bytes replay_rng 128 in
    let chain = micro (fun () -> Hash.digest cfg.Config.hash ~length:n x_n) in
    let blake3 = micro (fun () -> Dsig_hashes.Blake3.digest x64) in
    let sha512 = micro (fun () -> Dsig_hashes.Sha512.digest x128) in
    (* cost of recording one span, to scale the tracing overhead *)
    let saved = (!Span.all, !Span.count) in
    let span_cost = micro (fun () -> Span.record "calibration" 0.0 0.0) in
    Span.all := fst saved;
    Span.count := snd saved;
    let med name = Samples.median (Span.durations name) in
    let ((_, _, vself) as verify) =
      Span.breakdown "verifier.verify" [ "wire.decode"; "hbss.recover"; "merkle.compute_root"; "ed25519.verify" ]
    in
    let ((_, _, sself) as sign) = Span.breakdown "runtime.sign" [ "hbss.wots_sign"; "wire.encode" ] in
    let background = Span.breakdown "batch.make" [ "hbss.keygen"; "merkle.build"; "ed25519.sign" ] in
    layers :=
      [
        ("verify", table verify ~self_name:"verifier.self");
        ("sign", table sign ~self_name:"runtime.sign_self");
        ("background", table background ~self_name:"batch.self");
      ];
    let fast = fast1 - fast0 and slow = slow1 - slow0 in
    let per_op v = v /. float_of_int (max 1 acc.offered) in
    let count v = float_of_int v in
    layer_metrics :=
      [
        ("ed25519.verify_us", med "ed25519.verify");
        ("ed25519.sign_us", med "ed25519.sign");
        ("hbss.recover_us", med "hbss.recover");
        ("hbss.keygen_us", med "hbss.keygen");
        ("hbss.wots_sign_us", med "hbss.wots_sign");
        ("hashes.chain_hash_us", chain);
        ("hashes.blake3_64B_us", blake3);
        ("hashes.sha512_128B_us", sha512);
        ("merkle.compute_root_us", med "merkle.compute_root");
        ("merkle.build_us", med "merkle.build");
        ("wire.decode_us", med "wire.decode");
        ("wire.encode_us", med "wire.encode");
        ("batch.make_us", med "batch.make");
        ("runtime.sign_self_us", Samples.median sself);
        ("runtime.sign_waits", count (waits1 - waits0));
        ("runtime.batches", count (batches1 - batches0));
        ("runtime.batch_gen_p50_us", Samples.median acc.batch_gen_us);
        ("runtime.bg_busy_ratio", (bg1 -. bg0) /. wall_us);
        ("runtime.queue_depth_min", count (if acc.depth_min = max_int then 0 else acc.depth_min));
        ("runtime.bg_gate_waits", count acc.gate_waits);
        ("verifier.self_us", Samples.median vself);
        ("verifier.fast", count fast);
        ("verifier.slow", count slow);
        ("verifier.rejected", count (rej1 - rej0));
        ("verifier.eddsa_cache_hits", count (hits1 - hits0));
        ("verifier.fast_share", if fast + slow = 0 then 0.0 else count fast /. count (fast + slow));
        ("verifier.deliver_us", Samples.median acc.deliver_us);
        ("verifier.requests_sent", count (req1 - req0));
        ("verifier.acks_sent", count (acks1 - acks0));
        ("announce.acks", count (racks1 - racks0));
        ("announce.reannounces", count (reann1 - reann0));
        ("announce.unacked_end", count unacked_end);
        ("tcpnet.send_us", Samples.median acc.send_us);
        ("tcpnet.deliver_p50_us", Samples.median acc.net_us);
        ("tcpnet.frames_sent", count (frames1 - frames0));
        ("tcpnet.bytes_per_op", per_op (count (bytes1 - bytes0)));
        ("tcpnet.decode_errors", count (dec1 - dec0));
        ("tcpnet.reader_errors", count (rerr1 - rerr0));
        ("gc.minor_collections", count (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
        ("gc.major_collections", count (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("gc.minor_words_per_op", per_op (gc1.Gc.minor_words -. gc0.Gc.minor_words));
        ("loadgen.offered_ops", count acc.offered /. (window_us /. 1e6));
        ("loadgen.late_p99_us", Samples.percentile acc.late_us 99.0);
        ("trace.overhead_ratio", (acc.replay_us +. (count spans_in_window *. span_cost)) /. wall_us);
      ]
  end;
  let top_heap_mb = mib (Gc.quick_stat ()).Gc.top_heap_words in
  sys.teardown ();
  (* [setups - 1] more set-ups, timed and torn down, for a median: after
     the window, so a torn-down system's memory stays out of the heap
     figures *)
  for _ = 2 to setups do
    let extra, s = setup kind (Rng.split rng) acc tcp in
    Samples.add setup_s s;
    extra.teardown ()
  done;
  let failed = acc.wrong + acc.unfinished in
  let metrics =
    [
      ("setup_s", Samples.median setup_s);
      ("sign_p50_us", Samples.median acc.sign_us);
      ("sign_p99_us", Samples.percentile acc.sign_us 99.0);
      ("verify_p50_us", Samples.median acc.verify_us);
      ("verify_p99_us", Samples.percentile acc.verify_us 99.0);
      ("e2e_p50_us", Samples.median acc.e2e_us);
      ("e2e_p99_us", Samples.percentile acc.e2e_us 99.0);
      ("throughput_ops", throughput);
      ("failed_ratio", float_of_int failed /. float_of_int (max 1 acc.attempted));
      ("live_heap_mb", live_heap_mb);
      ("gc.top_heap_mb", top_heap_mb);
    ]
    @ !layer_metrics
  in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (acc.wrong = 0 && acc.genuine_ok > 0));
         ("attempted", string_of_int acc.attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj (List.map (fun (k, v) -> (k, json_float v)) metrics));
         ("layers", json_obj !layers);
       ])
