type 'a node = {
  tx : Resource.t;
  rx : Resource.t;
  inbox : (int * int * 'a) Channel.t;
}

type 'a faults = {
  drop : float;
  duplicate : float;
  corrupt : float;
  reorder : float;
  reorder_delay_us : float;
  mutate : ('a -> 'a option) option;
  rng : Dsig_util.Rng.t;
}

type 'a t = {
  sim : Sim.t;
  latency_us : float;
  per_byte_us : float;
  gbps : float; (* every NIC's bandwidth *)
  nodes : 'a node array;
  mutable faults : 'a faults option;
}

let create sim ~nodes ?(latency_us = 1.0) ?(per_byte_us = 0.0006) ?(bandwidth_gbps = 100.0) () =
  {
    sim;
    latency_us;
    per_byte_us;
    gbps = bandwidth_gbps;
    nodes =
      Array.init nodes (fun i ->
          {
            tx = Resource.create ~name:(Printf.sprintf "nic%d.tx" i) sim;
            rx = Resource.create ~name:(Printf.sprintf "nic%d.rx" i) sim;
            inbox = Channel.create sim;
          });
    faults = None;
  }

let set_faults t ?(drop = 0.0) ?(duplicate = 0.0) ?(corrupt = 0.0) ?(reorder = 0.0)
    ?(reorder_delay_us = 20.0) ?mutate ~seed () =
  t.faults <-
    Some
      { drop; duplicate; corrupt; reorder; reorder_delay_us; mutate; rng = Dsig_util.Rng.create seed }

let clear_faults t = t.faults <- None

let sim t = t.sim

(* Serialization time of [bytes] at [gbps]: bytes*8 bits / (gbps*1e9) s,
   expressed in µs. *)
let wire_time bytes gbps = float_of_int (bytes * 8) /. (gbps *. 1000.0)

let enqueue t ~src ~dst ~bytes payload =
  let d = t.nodes.(dst) in
  Sim.spawn t.sim (fun () ->
      Resource.use d.rx (wire_time bytes t.gbps);
      Channel.send d.inbox (src, bytes, payload))

let deliver t ~src ~dst ~bytes payload =
  match t.faults with
  | None -> enqueue t ~src ~dst ~bytes payload
  | Some f ->
      let draw p = p > 0.0 && Dsig_util.Rng.float f.rng 1.0 < p in
      let copies = if draw f.drop then 0 else if draw f.duplicate then 2 else 1 in
      for _ = 1 to copies do
        (* corruption: pass the payload through the mutate hook (a
           bit-flipped re-decode for byte payloads); without a hook, or
           when the hook reports the frame undecodable, the corrupted
           copy is lost — the receiver's decoder would have rejected it *)
        let corrupted =
          if draw f.corrupt then match f.mutate with Some m -> m payload | None -> None
          else Some payload
        in
        match corrupted with
        | None -> ()
        | Some payload ->
            if draw f.reorder then
              (* hold the copy back so later traffic overtakes it *)
              let extra = Dsig_util.Rng.float f.rng f.reorder_delay_us in
              Sim.schedule t.sim ~delay:extra (fun () -> enqueue t ~src ~dst ~bytes payload)
            else enqueue t ~src ~dst ~bytes payload
      done

let send t ~src ~dst ~bytes payload =
  let s = t.nodes.(src) in
  Resource.use s.tx (wire_time bytes t.gbps);
  let propagation = t.latency_us +. (t.per_byte_us *. float_of_int bytes) in
  Sim.schedule t.sim ~delay:propagation (fun () -> deliver t ~src ~dst ~bytes payload)

let send_async t ~src ~dst ~bytes payload =
  Sim.spawn t.sim (fun () -> send t ~src ~dst ~bytes payload)

let inject t ~node ~src payload = Channel.send t.nodes.(node).inbox (src, 0, payload)

let recv t ~node = Channel.recv t.nodes.(node).inbox
let recv_opt t ~node = Channel.recv_opt t.nodes.(node).inbox
let pending t ~node = Channel.length t.nodes.(node).inbox
