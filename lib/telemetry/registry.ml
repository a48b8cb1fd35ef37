type cell =
  | C of Metric.Counter.t
  | G of Metric.Gauge.t
  | H of Metric.Histogram.t

(* a counter probe keeps its name's cell, which takes its last reading
   when the probe retires *)
type reading = Count of Metric.Counter.t * (unit -> int) | Level of (unit -> float)

(* [retired] is set by a finaliser on the probe's owner. A finaliser can
   run while this domain holds [mu], so it only sets the flag and the
   next snapshot, under [mu], drops the probe. *)
type probe = { name : string; read : reading; retired : bool Atomic.t }

type t = {
  mu : Mutex.t;  (* guards [cells] and [probes]; the cells guard themselves *)
  cells : (string, cell) Hashtbl.t;
  mutable probes : probe list;  (* several per name *)
}

let create () = { mu = Mutex.create (); cells = Hashtbl.create 32; probes = [] }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let kind_error name ~is ~wanted =
  invalid_arg (Printf.sprintf "Dsig_telemetry.Registry: %S is a %s, not a %s" name is wanted)

let resolve t name ~make ~cast =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some cell -> cast cell
      | None ->
          let cell = make () in
          Hashtbl.add t.cells name cell;
          cast cell)

let counter t name =
  resolve t name
    ~make:(fun () -> C (Metric.Counter.create ()))
    ~cast:(function C c -> c | cell -> kind_error name ~is:(kind_name cell) ~wanted:"counter")

let gauge t name =
  resolve t name
    ~make:(fun () -> G (Metric.Gauge.create ()))
    ~cast:(function G g -> g | cell -> kind_error name ~is:(kind_name cell) ~wanted:"gauge")

let histogram t name =
  resolve t name
    ~make:(fun () -> H (Metric.Histogram.create ()))
    ~cast:(function H h -> h | cell -> kind_error name ~is:(kind_name cell) ~wanted:"histogram")

let add_probe t ~owner name read =
  let retired = Atomic.make false in
  Gc.finalise_last (fun () -> Atomic.set retired true) owner;
  Mutex.protect t.mu (fun () -> t.probes <- { name; read; retired } :: t.probes)

(* the (zero) cell claims the name, so the kind check holds *)
let probe t ~owner name read = add_probe t ~owner name (Count (counter t name, read))

let gauge_probe t ~owner name read =
  ignore (gauge t name);
  add_probe t ~owner name (Level read)

module Snapshot = struct
  type value =
    | Counter of int
    | Gauge of float
    | Histogram of Metric.Histogram.snapshot

  type nonrec t = (string * value) list

  let merge_value a b =
    match (a, b) with
    | Counter x, Counter y -> Counter (x + y)
    | Gauge x, Gauge y -> Gauge (x +. y)
    | Histogram x, Histogram y -> Histogram (Metric.Histogram.merge x y)
    | _ -> invalid_arg "Dsig_telemetry.Registry.Snapshot.merge: kind mismatch"

  let merge a b =
    let rec go a b =
      match (a, b) with
      | [], rest | rest, [] -> rest
      | (na, va) :: ta, (nb, vb) :: tb ->
          if na = nb then (na, merge_value va vb) :: go ta tb
          else if na < nb then (na, va) :: go ta b
          else (nb, vb) :: go a tb
    in
    go a b

  let find t name = List.assoc_opt name t
end

let snapshot t =
  let read = function
    | C c -> Snapshot.Counter (Metric.Counter.value c)
    | G g -> Snapshot.Gauge (Metric.Gauge.value g)
    | H h -> Snapshot.Histogram (Metric.Histogram.snapshot h)
  in
  Mutex.protect t.mu (fun () ->
      (* a retired counter probe's last reading moves into its cell, so
         the name's total never goes backwards *)
      t.probes <-
        List.filter
          (fun p ->
            if not (Atomic.get p.retired) then true
            else begin
              (match p.read with
              | Count (c, read) -> Metric.Counter.incr ~by:(read ()) c
              | Level _ -> ());
              false
            end)
          t.probes;
      let acc = Hashtbl.create (Hashtbl.length t.cells) in
      let add name v =
        Hashtbl.replace acc name
          (match Hashtbl.find_opt acc name with
          | Some w -> Snapshot.merge_value w v
          | None -> v)
      in
      Hashtbl.iter (fun name cell -> add name (read cell)) t.cells;
      List.iter
        (fun p ->
          match p.read with
          | Count (_, read) -> add p.name (Snapshot.Counter (read ()))
          | Level read -> add p.name (Snapshot.Gauge (read ())))
        t.probes;
      Hashtbl.fold (fun name v l -> (name, v) :: l) acc []
      |> List.sort (fun (a, _) (b, _) -> compare a b))
