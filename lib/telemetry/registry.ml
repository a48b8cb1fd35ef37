type cell =
  | C of Metric.Counter.t
  | G of Metric.Gauge.t
  | H of Metric.Histogram.t

type probe = Count of (unit -> int) | Level of (unit -> float)

type t = {
  mu : Mutex.t;  (* guards both tables; the cells guard themselves *)
  cells : (string, cell) Hashtbl.t;
  probes : (string, probe) Hashtbl.t;  (* several bindings per name *)
}

let create () = { mu = Mutex.create (); cells = Hashtbl.create 32; probes = Hashtbl.create 16 }

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

(* the (zero) cell claims the name, so the kind check holds *)
let probe t name read =
  ignore (counter t name);
  Mutex.protect t.mu (fun () -> Hashtbl.add t.probes name (Count read))

let gauge_probe t name read =
  ignore (gauge t name);
  Mutex.protect t.mu (fun () -> Hashtbl.add t.probes name (Level read))

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
      let acc = Hashtbl.create (Hashtbl.length t.cells) in
      let add name v =
        Hashtbl.replace acc name
          (match Hashtbl.find_opt acc name with
          | Some w -> Snapshot.merge_value w v
          | None -> v)
      in
      Hashtbl.iter (fun name cell -> add name (read cell)) t.cells;
      Hashtbl.iter
        (fun name -> function
          | Count read -> add name (Snapshot.Counter (read ()))
          | Level read -> add name (Snapshot.Gauge (read ())))
        t.probes;
      Hashtbl.fold (fun name v l -> (name, v) :: l) acc []
      |> List.sort (fun (a, _) (b, _) -> compare a b))
