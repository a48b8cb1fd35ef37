module BU = Dsig_util.Bytesutil
module Logtree = Dsig_merkle.Logtree
module Tcpnet = Dsig_tcpnet.Tcpnet
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric

(* A frame is a u32 LE payload length, then a 1-byte tag. Requests:
   'C' (checkpoint), 'I' u64 size u64 index (inclusion), 'N' u64 old
   u64 new (consistency). Responses: 'C' encoded checkpoint, 'P'
   encoded proof, 'E' error text. Frames go out through
   [Tcpnet.write_frame]; [read_frame] has its own bounds (1 MiB, never
   empty). *)

let max_frame = 1 lsl 20

let read_frame fd =
  let len = Int32.to_int (BU.get_u32_le (Tcpnet.really_read fd 4) 0) in
  if len <= 0 || len > max_frame then failwith "translog serve: bad frame length"
  else Tcpnet.really_read fd len

type request =
  | Get_checkpoint
  | Get_inclusion of { size : int; index : int }
  | Get_consistency of { old_size : int; new_size : int }

let encode_request = function
  | Get_checkpoint -> "C"
  | Get_inclusion { size; index } ->
      BU.concat [ "I"; BU.u64_le (Int64.of_int size); BU.u64_le (Int64.of_int index) ]
  | Get_consistency { old_size; new_size } ->
      BU.concat [ "N"; BU.u64_le (Int64.of_int old_size); BU.u64_le (Int64.of_int new_size) ]

let decode_request s =
  let len = String.length s in
  if len = 0 then Error "empty request"
  else
    match s.[0] with
    | 'C' when len = 1 -> Ok Get_checkpoint
    | 'I' when len = 17 ->
        Ok
          (Get_inclusion
             {
               size = Int64.to_int (BU.get_u64_le s 1);
               index = Int64.to_int (BU.get_u64_le s 9);
             })
    | 'N' when len = 17 ->
        Ok
          (Get_consistency
             {
               old_size = Int64.to_int (BU.get_u64_le s 1);
               new_size = Int64.to_int (BU.get_u64_le s 9);
             })
    | c -> Error (Printf.sprintf "bad request tag %C (%d bytes)" c len)

type t = {
  listener : Unix.file_descr;
  actual_port : int;
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
  c_requests : Metric.Counter.t;
  c_errors : Metric.Counter.t;
}

let handle_request ~log ~log_id ~sign req =
  match req with
  | Get_checkpoint -> "C" ^ Checkpoint.encode (Translog.checkpoint log ~log_id ~sign)
  | Get_inclusion { size; index } -> (
      match Translog.prove_inclusion log ~size ~index () with
      | Ok proof -> "P" ^ Logtree.encode_proof proof
      | Error e -> "E" ^ e)
  | Get_consistency { old_size; new_size } -> (
      match Translog.prove_consistency log ~old_size ~new_size with
      | Ok proof -> "P" ^ Logtree.encode_proof proof
      | Error e -> "E" ^ e)

let serve ?(telemetry = Tel.default) ~port ~log ~log_id ~sign () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen listener 16;
  let actual_port =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let t =
    {
      listener;
      actual_port;
      stopping = false;
      accept_thread = None;
      c_requests = Tel.counter telemetry "dsig_translog_requests_total";
      c_errors = Tel.counter telemetry "dsig_translog_serve_errors_total";
    }
  in
  let handle_conn fd =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      (fun () ->
        (* serve requests until the peer hangs up *)
        let continue_ = ref true in
        while !continue_ do
          match read_frame fd with
          | exception (End_of_file | Unix.Unix_error (_, _, _)) -> continue_ := false
          | payload ->
              Metric.Counter.incr t.c_requests;
              let reply =
                match decode_request payload with
                | Ok req -> (
                    try handle_request ~log ~log_id ~sign req
                    with e ->
                      Metric.Counter.incr t.c_errors;
                      "E" ^ Printexc.to_string e)
                | Error e ->
                    Metric.Counter.incr t.c_errors;
                    "E" ^ e
              in
              Tcpnet.write_frame fd reply
        done)
  in
  let accept_loop () =
    let continue_ = ref true in
    while (not t.stopping) && !continue_ do
      match Unix.accept listener with
      | exception Unix.Unix_error (_, _, _) -> continue_ := false
      | peer, _ ->
          if t.stopping then (try Unix.close peer with Unix.Unix_error (_, _, _) -> ())
          else ignore (Thread.create (fun () -> try handle_conn peer with _ -> ()) ())
    done
  in
  t.accept_thread <- Some (Thread.create accept_loop ());
  t

let port t = t.actual_port

let stop t =
  t.stopping <- true;
  (try
     let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.actual_port))
      with Unix.Unix_error (_, _, _) -> ());
     Unix.close fd
   with Unix.Unix_error (_, _, _) -> ());
  (match t.accept_thread with Some th -> ( try Thread.join th with _ -> ()) | None -> ());
  try Unix.close t.listener with Unix.Unix_error (_, _, _) -> ()

(* --- one-shot clients --- *)

let roundtrip ~port req =
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Tcpnet.write_frame fd (encode_request req);
        read_frame fd)
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception End_of_file -> Error "connection closed mid-reply"
  | exception Failure e -> Error e
  | reply -> Ok reply

let expect_proof = function
  | Error e -> Error e
  | Ok reply when String.length reply >= 1 && reply.[0] = 'P' -> (
      match Logtree.decode_proof (String.sub reply 1 (String.length reply - 1)) with
      | Some (proof, "") -> Ok proof
      | Some _ | None -> Error "malformed proof reply")
  | Ok reply when String.length reply >= 1 && reply.[0] = 'E' ->
      Error (String.sub reply 1 (String.length reply - 1))
  | Ok _ -> Error "unexpected reply tag"

let fetch_checkpoint ~port () =
  match roundtrip ~port Get_checkpoint with
  | Error e -> Error e
  | Ok reply when String.length reply >= 1 && reply.[0] = 'C' ->
      Checkpoint.decode (String.sub reply 1 (String.length reply - 1))
  | Ok reply when String.length reply >= 1 && reply.[0] = 'E' ->
      Error (String.sub reply 1 (String.length reply - 1))
  | Ok _ -> Error "unexpected reply tag"

let fetch_inclusion ~port ~size ~index () =
  expect_proof (roundtrip ~port (Get_inclusion { size; index }))

let fetch_consistency ~port ~old_size ~new_size () =
  expect_proof (roundtrip ~port (Get_consistency { old_size; new_size }))

(* --- scrape mount --- *)

let checkpoint_route ~log ~log_id ~sign path =
  if path <> "/checkpoint" then None
  else begin
    let cp = Translog.checkpoint log ~log_id ~sign in
    let body =
      Printf.sprintf
        "{\"log_id\":%d,\"tree_size\":%d,\"root\":%S,\"signature\":%S,\"encoded\":%S}"
        cp.Checkpoint.log_id cp.Checkpoint.tree_size
        (BU.to_hex cp.Checkpoint.root)
        (BU.to_hex cp.Checkpoint.signature)
        (BU.to_hex (Checkpoint.encode cp))
    in
    Some ("200 OK", "application/json", body)
  end
