open Dsig_simnet
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric

type verify_fn = client:int -> msg:string -> signature:string -> bool

(* Every request ends served or rejected. The registry reads these
   counts through probes, which capture only this record, not the
   server's store. *)
type counts = { mutable served : int; mutable rejected : int }

type t = { store : Store.t; log : Dsig_audit.Audit.t; counts : counts }

let start ~sim ~net ~node ~verify ?(verify_cost_us = fun ~signature:_ -> 0.0)
    ?(exec_cost_us = 0.3) ?(telemetry = Tel.default) () =
  let counts = { served = 0; rejected = 0 } in
  let t = { store = Store.create (); log = Dsig_audit.Audit.create (); counts } in
  Tel.probe telemetry ~owner:t "dsig_kv_requests_total" (fun () -> counts.served + counts.rejected);
  Tel.probe telemetry ~owner:t "dsig_kv_rejected_total" (fun () -> counts.rejected);
  let h_serve = Tel.histogram telemetry "dsig_kv_serve_us" in
  let core = Resource.create ~name:"kv.core" sim in
  Sim.spawn sim (fun () ->
      while true do
        let client, _bytes, (encoded, signature) = Net.recv net ~node in
        let t0 = Sim.now sim in
        Resource.use core (verify_cost_us ~signature);
        let reply =
          match Store.Command.decode encoded with
          | None ->
              counts.rejected <- counts.rejected + 1;
              Store.Reply.Error "malformed"
          | Some (seq, cmd) -> (
              match
                Dsig_audit.Audit.admit t.log
                  ~verify:(fun ~msg signature -> verify ~client ~msg ~signature)
                  ~client ~seq ~op:encoded ~signature
              with
              | Error e ->
                  counts.rejected <- counts.rejected + 1;
                  Store.Reply.Error e
              | Ok _ ->
                  counts.served <- counts.served + 1;
                  Resource.use core exec_cost_us;
                  Store.exec t.store cmd)
        in
        Metric.Histogram.add h_serve (Sim.now sim -. t0);
        Net.send net ~src:node ~dst:client
          ~bytes:(16 + String.length (Store.Reply.to_string reply))
          (Store.Reply.to_string reply, "")
      done);
  t

let store t = t.store
let audit_log t = t.log
let requests_served t = t.counts.served
let requests_rejected t = t.counts.rejected

let request ~net ~me ~server ~sign ~seq cmd =
  let encoded = Store.Command.encode ~seq cmd in
  let signature = sign ~msg:encoded in
  Net.send net ~src:me ~dst:server
    ~bytes:(String.length encoded + String.length signature)
    (encoded, signature);
  let _, _, (reply, _) = Net.recv net ~node:me in
  reply
