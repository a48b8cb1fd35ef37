module Tel = Dsig_telemetry.Telemetry
module Export = Dsig_telemetry.Export
module Lifecycle = Dsig_telemetry.Lifecycle
module Metric = Dsig_telemetry.Metric

type t = {
  listener : Unix.file_descr;
  actual_port : int;
  telemetry : Tel.t;
  health_budgets : (Lifecycle.plane * float) list;
  timeseries : Dsig_timeseries.Sampler.t option;
  alerts : Dsig_timeseries.Alert.t option;
  loadctl : Dsig_loadctl.Admission.t option;
  routes : (string -> (string * string * string) option) list;
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
  c_requests : Metric.Counter.t;
  c_errors : Metric.Counter.t;
}

(* --- bodies --- *)

let planes_body tel =
  let lc = tel.Tel.lifecycle in
  let buf = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string buf) "started %d\n" (Lifecycle.started lc);
  Printf.ksprintf (Buffer.add_string buf) "completed %d\n" (Lifecycle.completed lc);
  Printf.ksprintf (Buffer.add_string buf) "full %d\n" (Lifecycle.full lc);
  List.iter
    (fun plane ->
      let s = Lifecycle.plane_snapshot lc plane in
      let p q = Dsig_telemetry.Metric.Histogram.percentile s q in
      Printf.ksprintf (Buffer.add_string buf) "%s %d %.3f %.3f %.3f\n"
        (Lifecycle.plane_name plane) s.Dsig_telemetry.Metric.Histogram.n (p 50.0) (p 99.0)
        (p 99.9))
    Lifecycle.[ Sign; Announce; Verify; End_to_end ];
  Buffer.contents buf

let trace_body tel =
  let lc = tel.Tel.lifecycle in
  Printf.sprintf "{\"lifecycle\":%s,\"spans\":%s}" (Export.json_lifecycle lc)
    (Export.json_spans lc)

(* /health SLO budgets, per plane, in microseconds. Generous defaults:
   sign and verify are microsecond-scale paths, announce and end-to-end
   absorb background-plane latency. *)
let default_health_budgets =
  Lifecycle.[ (Sign, 10_000.0); (Announce, 100_000.0); (Verify, 10_000.0); (End_to_end, 100_000.0) ]

let health_body tel budgets =
  let lc = tel.Tel.lifecycle in
  let verdicts =
    List.map
      (fun (plane, budget_us) ->
        let ok =
          match plane with
          (* the end-to-end verdict is literally the lifecycle SLO check *)
          | Lifecycle.End_to_end -> Lifecycle.within ~budget_us lc
          | plane -> Lifecycle.plane_within lc plane ~budget_us
        in
        (plane, budget_us, Lifecycle.plane_snapshot lc plane, ok))
      budgets
  in
  let all_ok = verdicts <> [] && List.for_all (fun (_, _, _, ok) -> ok) verdicts in
  let buf = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string buf) "{\"status\":%S,\"planes\":["
    (if all_ok then "ok" else "failing");
  List.iteri
    (fun i (plane, budget_us, s, ok) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.ksprintf (Buffer.add_string buf)
        "{\"plane\":%S,\"n\":%d,\"p99_us\":%.3f,\"budget_us\":%.3f,\"ok\":%b}"
        (Lifecycle.plane_name plane) s.Metric.Histogram.n
        (Metric.Histogram.percentile s 99.0) budget_us ok)
    verdicts;
  Buffer.add_string buf "]}";
  (all_ok, Buffer.contents buf)

let route ?(health_budgets = default_health_budgets) ?timeseries ?alerts ?loadctl tel path =
  match path with
  (* the time-series plane mounts only when a sampler/alerter is
     wired in: a plain scrape server answers 404 for these *)
  | "/timeseries" ->
      Option.map
        (fun sampler ->
          ("200 OK", "application/json", Dsig_timeseries.Sampler.to_json sampler))
        timeseries
  | "/alerts" ->
      Option.map
        (fun alerter -> ("200 OK", "application/json", Dsig_timeseries.Alert.to_json alerter))
        alerts
  | "/metrics" ->
      Some ("200 OK", "text/plain; version=0.0.4", Export.prometheus (Tel.snapshot tel))
  | "/metrics.json" ->
      Some
        ( "200 OK",
          "application/json",
          Export.json ~lifecycle:tel.Tel.lifecycle (Tel.snapshot tel) )
  | "/loadctl" ->
      Option.map
        (fun a -> ("200 OK", "application/json", Dsig_loadctl.Admission.to_json a))
        loadctl
  | "/trace" -> Some ("200 OK", "application/json", trace_body tel)
  | "/planes" -> Some ("200 OK", "text/plain", planes_body tel)
  | "/health" ->
      let ok, body = health_body tel health_budgets in
      Some ((if ok then "200 OK" else "503 Service Unavailable"), "application/json", body)
  | _ -> None

(* --- HTTP/1.0 plumbing --- *)

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

(* every error leaves through here, so all of them carry a status line,
   a Content-Type and a correct Content-Length — clients can parse a
   404 exactly like a 200 *)
let error_response t ~status detail =
  Metric.Counter.incr t.c_errors;
  response ~status ~content_type:"text/plain" (detail ^ "\n")

let max_request_bytes = 8192

(* Read until the end of the request head; scrape requests have no body. *)
let read_request fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    let has_head () =
      let s = Buffer.contents buf in
      let rec find i =
        if i + 3 >= String.length s then false
        else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then
          true
        else find (i + 1)
      in
      find 0
    in
    if has_head () then Some (Buffer.contents buf)
    else if Buffer.length buf > max_request_bytes then None
    else begin
      let n = try Unix.read fd chunk 0 1024 with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
      if n = 0 then if Buffer.length buf > 0 then Some (Buffer.contents buf) else None
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      end
    end
  in
  go ()

let parse_path head =
  match String.index_opt head '\n' with
  | None -> None
  | Some eol -> (
      let line = String.trim (String.sub head 0 eol) in
      match String.split_on_char ' ' line with
      | "GET" :: path :: _ -> Some path
      | _ -> None)

let handle_conn t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      match Option.bind (read_request fd) parse_path with
      | None ->
          Tcpnet.really_write fd (error_response t ~status:"400 Bad Request" "bad request")
      | Some path -> (
          Metric.Counter.incr t.c_requests;
          let extra path = List.find_map (fun r -> r path) t.routes in
          let builtin path =
            route ~health_budgets:t.health_budgets ?timeseries:t.timeseries
              ?alerts:t.alerts ?loadctl:t.loadctl t.telemetry path
          in
          match
            match extra path with Some r -> Some r | None -> builtin path
          with
          | Some (status, content_type, body) ->
              Tcpnet.really_write fd (response ~status ~content_type body)
          | None -> Tcpnet.really_write fd (error_response t ~status:"404 Not Found" "not found")
          | exception e ->
              (* a mounted route that raises must not kill the
                 connection without an answer *)
              Tcpnet.really_write fd
                (error_response t ~status:"500 Internal Server Error" (Printexc.to_string e))))

let start ?(telemetry = Tel.default) ?(health_budgets_us = default_health_budgets) ?timeseries
    ?alerts ?loadctl ?(routes = []) ~port () =
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
      telemetry;
      health_budgets = health_budgets_us;
      timeseries;
      alerts;
      loadctl;
      routes;
      stopping = false;
      accept_thread = None;
      c_requests = Tel.counter telemetry "dsig_scrape_requests_total";
      c_errors = Tel.counter telemetry "dsig_scrape_errors_total";
    }
  in
  let accept_loop () =
    let continue_ = ref true in
    while (not t.stopping) && !continue_ do
      match Unix.accept listener with
      | exception Unix.Unix_error (_, _, _) -> continue_ := false
      | peer, _ ->
          if t.stopping then (try Unix.close peer with Unix.Unix_error (_, _, _) -> ())
          else
            ignore
              (Thread.create
                 (fun () -> try handle_conn t peer with _ -> Metric.Counter.incr t.c_errors)
                 ())
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

(* --- a tiny loopback GET client (tests, [dsig_cli top]) --- *)

let fetch ~port ~path =
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Tcpnet.really_write fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          let n =
            try Unix.read fd chunk 0 4096 with Unix.Unix_error (Unix.EINTR, _, _) -> 1
          in
          if n > 0 then begin
            if n <= 4096 then Buffer.add_subbytes buf chunk 0 (Stdlib.min n 4096);
            drain ()
          end
        in
        drain ();
        Buffer.contents buf)
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | raw -> (
      (* split head from body at the first blank line *)
      let rec find i =
        if i + 3 >= String.length raw then None
        else if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r' && raw.[i + 3] = '\n'
        then Some (i + 4)
        else find (i + 1)
      in
      match find 0 with
      | None -> Error "malformed response"
      | Some body_at ->
          let head = String.sub raw 0 body_at in
          let body = String.sub raw body_at (String.length raw - body_at) in
          let ok =
            match String.split_on_char ' ' head with _ :: "200" :: _ -> true | _ -> false
          in
          if ok then Ok body else Error (String.trim (List.hd (String.split_on_char '\n' head))))
