type t = {
  registry : Registry.t;
  lifecycle : Lifecycle.t;
  mutable clock : unit -> float;
}

let create ?(clock = Tracer.mono_clock_us) () =
  let registry = Registry.create () in
  { registry; lifecycle = Lifecycle.create ~registry (); clock }

let default = create ()
let set_clock t clock = t.clock <- clock
let now t = t.clock ()
let counter t name = Registry.counter t.registry name
let gauge t name = Registry.gauge t.registry name
let histogram t name = Registry.histogram t.registry name
let probe t ~owner name read = Registry.probe t.registry ~owner name read
let gauge_probe t ~owner name read = Registry.gauge_probe t.registry ~owner name read
let snapshot t = Registry.snapshot t.registry
