module BU = Dsig_util.Bytesutil
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric

(* Transport metrics, shared by every reader thread and client of a
   bundle; the cells are domain-safe, so no increment is lost. *)
type net_tel = {
  c_frames_in : Metric.Counter.t;
  c_frames_out : Metric.Counter.t;
  c_bytes_in : Metric.Counter.t;
  c_bytes_out : Metric.Counter.t;
  c_decode_errors : Metric.Counter.t;
  c_reader_errors : Metric.Counter.t;
  h_frame : Metric.Histogram.t;
}

let net_tel_of telemetry =
  {
    c_frames_in = Tel.counter telemetry "dsig_tcpnet_frames_received_total";
    c_frames_out = Tel.counter telemetry "dsig_tcpnet_frames_sent_total";
    c_bytes_in = Tel.counter telemetry "dsig_tcpnet_bytes_received_total";
    c_bytes_out = Tel.counter telemetry "dsig_tcpnet_bytes_sent_total";
    c_decode_errors = Tel.counter telemetry "dsig_tcpnet_decode_errors_total";
    c_reader_errors = Tel.counter telemetry "dsig_tcpnet_reader_errors_total";
    h_frame = Tel.histogram telemetry "dsig_tcpnet_frame_bytes";
  }

module Trace = Dsig_telemetry.Trace_ctx

type message =
  | Announcement of Dsig.Batch.announcement
  | Signed of { msg : string; signature : string }
  | Control of Dsig.Batch.control
  | Checkpoint of string
  | Revoke of string
  | Traced of Trace.t * message

let rec encode_message = function
  | Announcement a -> "A" ^ Dsig.Batch.encode_announcement a
  | Signed { msg; signature } ->
      "S" ^ BU.u32_le (Int32.of_int (String.length msg)) ^ msg ^ signature
  (* Batch.encode_control already carries its own 'K'/'R'/'P' tag byte *)
  | Control c -> Dsig.Batch.encode_control c
  (* the payload is an encoded Dsig_translog.Checkpoint — carried
     opaquely so the transport stays independent of the log library *)
  | Checkpoint c -> "C" ^ c
  (* an encoded Dsig_keylife.Revocation record, carried opaquely like
     checkpoints — receivers verify the authority signature themselves *)
  | Revoke r -> "V" ^ r
  | Traced (ctx, inner) -> "T" ^ Trace.encode ctx ^ encode_message inner

let rec decode_message s =
  if String.length s < 1 then Error "empty frame"
  else begin
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'A' -> Result.map (fun a -> Announcement a) (Dsig.Batch.decode_announcement body)
    | 'K' | 'R' | 'P' -> Result.map (fun c -> Control c) (Dsig.Batch.decode_control s)
    | 'C' -> if body = "" then Error "empty checkpoint frame" else Ok (Checkpoint body)
    | 'V' -> if body = "" then Error "empty revocation frame" else Ok (Revoke body)
    | 'S' ->
        if String.length body < 4 then Error "short signed frame"
        else begin
          let mlen = Int32.to_int (BU.get_u32_le body 0) in
          if mlen < 0 || 4 + mlen > String.length body then Error "bad signed frame"
          else
            Ok
              (Signed
                 {
                   msg = String.sub body 4 mlen;
                   signature = String.sub body (4 + mlen) (String.length body - 4 - mlen);
                 })
        end
    | 'T' -> (
        match Trace.decode body 0 with
        | None -> Error "short traced frame"
        | Some ctx -> (
            match
              decode_message (String.sub body Trace.wire_bytes (String.length body - Trace.wire_bytes))
            with
            | Ok (Traced _) -> Error "nested traced frame"
            | Ok inner -> Ok (Traced (ctx, inner))
            | Error e -> Error e))
    | _ -> Error "unknown tag"
  end

(* --- framing --- *)

(* Unix.write/read raise EINTR when a signal lands mid-syscall; a
   partial transfer followed by EINTR must resume, not fail. *)
let rec write_chunk fd b off len =
  try Unix.write fd b off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> write_chunk fd b off len

let rec read_chunk fd b off len =
  try Unix.read fd b off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_chunk fd b off len

let really_write fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + write_chunk fd b !off (n - !off)
  done

let really_read fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    let r = read_chunk fd b !off (n - !off) in
    if r = 0 then raise End_of_file;
    off := !off + r
  done;
  Bytes.unsafe_to_string b

let max_frame = 1 lsl 26

let write_frame fd payload =
  really_write fd (BU.u32_le (Int32.of_int (String.length payload)) ^ payload)

let read_frame fd =
  let len = Int32.to_int (BU.get_u32_le (really_read fd 4) 0) in
  if len < 0 || len > max_frame then failwith "oversized frame";
  really_read fd len

(* --- server --- *)

(* A reader thread owns its descriptor: it alone closes it, after taking
   it off [peers]. [stop] shuts down the listed ones, which cannot have
   been reused, and waits on [drained] for their readers. *)
type server = {
  listener : Unix.file_descr;
  actual_port : int;
  mutable stopping : bool;
  mutable peers : Unix.file_descr list;
  mu : Mutex.t;
  drained : Condition.t; (* signaled when [peers] becomes empty *)
  mutable accept_thread : Thread.t option;
}

let listen ?(telemetry = Tel.default) ~port ~on_message () =
  let tel = net_tel_of telemetry in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen listener 16;
  let actual_port =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let t =
    let mu = Mutex.create () and drained = Condition.create () in
    { listener; actual_port; stopping = false; peers = []; mu; drained; accept_thread = None }
  in
  let release peer =
    Mutex.protect t.mu (fun () ->
        t.peers <- List.filter (fun fd -> fd <> peer) t.peers;
        if t.peers = [] then Condition.broadcast t.drained);
    try Unix.close peer with Unix.Unix_error (_, _, _) -> ()
  in
  let reader peer () =
    (try
       while not t.stopping do
         let frame = read_frame peer in
         Metric.Counter.incr tel.c_frames_in;
         Metric.Counter.incr ~by:(4 + String.length frame) tel.c_bytes_in;
         Metric.Histogram.add tel.h_frame (float_of_int (String.length frame));
         match decode_message frame with
         | Ok m -> on_message m
         | Error _ ->
             (* drop malformed frames *)
             Metric.Counter.incr tel.c_decode_errors
       done
     with e -> (
       (* any escape — EOF on orderly close, oversized-frame Failure,
          socket errors, or a misbehaving callback — must kill only this
          peer's thread, never the server; anything but an orderly EOF
          during shutdown is counted *)
       match e with
       | End_of_file -> ()
       | _ when t.stopping -> ()
       | _ -> Metric.Counter.incr tel.c_reader_errors));
    release peer
  in
  let accept_loop () =
    let continue_ = ref true in
    while (not t.stopping) && !continue_ do
      match Unix.accept listener with
      | exception Unix.Unix_error (_, _, _) -> continue_ := false (* listener closed on stop *)
      | peer, _ ->
          Mutex.protect t.mu (fun () -> t.peers <- peer :: t.peers);
          ignore (Thread.create (reader peer) ())
    done
  in
  t.accept_thread <- Some (Thread.create accept_loop ());
  t

let port t = t.actual_port

let stop t =
  t.stopping <- true;
  (* a blocked accept() is not interrupted by closing the listener on
     Linux: wake it with a throwaway connection first *)
  (try
     let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.actual_port))
      with Unix.Unix_error (_, _, _) -> ());
     Unix.close fd
   with Unix.Unix_error (_, _, _) -> ());
  (match t.accept_thread with Some th -> ( try Thread.join th with _ -> ()) | None -> ());
  (try Unix.close t.listener with Unix.Unix_error (_, _, _) -> ());
  (* wake every reader blocked in read; each closes its own descriptor *)
  Mutex.protect t.mu (fun () ->
      List.iter
        (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error (_, _, _) -> ())
        t.peers;
      while t.peers <> [] do
        Condition.wait t.drained t.mu
      done)

(* --- client --- *)

type client = { fd : Unix.file_descr; cl_tel : net_tel }

let connect ?(telemetry = Tel.default) ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; cl_tel = net_tel_of telemetry }

let send_payload t payload =
  write_frame t.fd payload;
  Metric.Counter.incr t.cl_tel.c_frames_out;
  Metric.Counter.incr ~by:(4 + String.length payload) t.cl_tel.c_bytes_out;
  Metric.Histogram.add t.cl_tel.h_frame (float_of_int (String.length payload))

let send t m = send_payload t (encode_message m)

let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()

(* --- fault injection --- *)

module Faulty = struct
  type nonrec t = {
    client : client;
    drop : float;
    corrupt : float;
    duplicate : float;
    rng : Dsig_util.Rng.t;
    mutable dropped : int;
    mutable corrupted : int;
  }

  let wrap ?(drop = 0.0) ?(corrupt = 0.0) ?(duplicate = 0.0) ~seed client =
    { client; drop; corrupt; duplicate; rng = Dsig_util.Rng.create seed; dropped = 0; corrupted = 0 }

  let flip_random_bit rng s =
    if String.length s = 0 then s
    else begin
      let b = Bytes.of_string s in
      let i = Dsig_util.Rng.int rng (Bytes.length b) in
      let bit = Dsig_util.Rng.int rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      Bytes.unsafe_to_string b
    end

  let send t m =
    let draw p = p > 0.0 && Dsig_util.Rng.float t.rng 1.0 < p in
    let payload = encode_message m in
    if draw t.drop then t.dropped <- t.dropped + 1
    else begin
      let copies = if draw t.duplicate then 2 else 1 in
      for _ = 1 to copies do
        let payload =
          if draw t.corrupt then begin
            t.corrupted <- t.corrupted + 1;
            flip_random_bit t.rng payload
          end
          else payload
        in
        send_payload t.client payload
      done
    end

  let dropped t = t.dropped
  let corrupted t = t.corrupted
end
