type t = {
  registry : Registry.t;
  tracer : Tracer.t;
  lifecycle : Lifecycle.t;
  mutable clock : unit -> float;
}

let create ?(clock = Tracer.mono_clock_us) ?trace_capacity ?span_capacity () =
  let registry = Registry.create () in
  {
    registry;
    tracer = Tracer.create ?capacity:trace_capacity ~clock ();
    lifecycle = Lifecycle.create ?span_capacity ~registry ();
    clock;
  }

let default = create ()

let set_clock t clock =
  t.clock <- clock;
  Tracer.set_clock t.tracer clock

let now t = t.clock ()
let counter t name = Registry.counter t.registry name
let gauge t name = Registry.gauge t.registry name
let histogram t name = Registry.histogram t.registry name
let probe t name read = Registry.probe t.registry name read
let snapshot t = Registry.snapshot t.registry

let time t h f =
  let t0 = t.clock () in
  Fun.protect ~finally:(fun () -> Metric.Histogram.add h (t.clock () -. t0)) f
