module Reg = Dsig_telemetry.Registry
module H = Dsig_telemetry.Metric.Histogram
module S = Reg.Snapshot
module Export = Dsig_telemetry.Export

type t = {
  registry : Reg.t;
  capacity : int;
  interval_us : float;
  series : (string, Series.t) Hashtbl.t;
  mutable samples : int;
  mutable last_us : float;
}

let create ?(capacity = 512) ?(interval_us = 0.0) registry =
  if capacity <= 0 then invalid_arg "Sampler.create: capacity must be positive";
  if interval_us < 0.0 then
    invalid_arg "Sampler.create: interval_us must be non-negative";
  {
    registry;
    capacity;
    interval_us;
    series = Hashtbl.create 32;
    samples = 0;
    last_us = 0.0;
  }

let interval_us t = t.interval_us
let samples t = t.samples

let series_of t name kind =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
      let s = Series.create ~capacity:t.capacity ~name kind in
      Hashtbl.replace t.series name s;
      s

let find t name = Hashtbl.find_opt t.series name

let all t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.series []
  |> List.sort (fun a b -> compare (Series.name a) (Series.name b))

let sample t ~now_us =
  if t.samples > 0 && now_us -. t.last_us < t.interval_us then false
  else begin
    t.samples <- t.samples + 1;
    t.last_us <- now_us;
    List.iter
      (fun (name, v) ->
        match v with
        | S.Counter n ->
            Series.push (series_of t name Series.Counter) ~t_us:now_us (float_of_int n)
        | S.Gauge g -> Series.push (series_of t name Series.Gauge) ~t_us:now_us g
        | S.Histogram h ->
            (* a histogram folds to three derived series: cumulative
               observation count plus the p50/p99 of everything observed
               so far (the registry keeps cumulative buckets) *)
            Series.push (series_of t (name ^ ":count") Series.Counter) ~t_us:now_us
              (float_of_int h.H.n);
            if h.H.n > 0 then begin
              Series.push (series_of t (name ^ ":p50") Series.Gauge) ~t_us:now_us
                (H.percentile h 50.0);
              Series.push (series_of t (name ^ ":p99") Series.Gauge) ~t_us:now_us
                (H.percentile h 99.0)
            end)
      (Reg.snapshot t.registry);
    true
  end

(* --- JSON --- *)

let num = Export.json_number
let str = Export.json_escape

let to_json t =
  let series =
    List.map
      (fun s ->
        let points =
          Series.points s
          |> List.map (fun (ts, v) -> Printf.sprintf "[%s,%s]" (num ts) (num v))
          |> String.concat ","
        in
        Printf.sprintf "{\"name\":\"%s\",\"kind\":\"%s\",\"points\":[%s]}"
          (str (Series.name s))
          (Series.kind_to_string (Series.kind s))
          points)
      (all t)
  in
  Printf.sprintf
    "{\"schema\":\"dsig-timeseries-v1\",\"samples\":%d,\"last_us\":%s,\"series\":[%s]}"
    t.samples (num t.last_us)
    (String.concat "," series)

let of_json body =
  let ( let* ) = Result.bind in
  let module J = Json_lite in
  let* root = J.parse body in
  let* series =
    match J.member "series" root with
    | Some (J.List l) -> Ok l
    | _ -> Error "missing \"series\" array"
  in
  let parse_series s =
    let* name =
      match Option.bind (J.member "name" s) J.to_string with
      | Some n -> Ok n
      | None -> Error "series without a name"
    in
    let kind =
      match Option.bind (J.member "kind" s) J.to_string with
      | Some k -> Option.value (Series.kind_of_string k) ~default:Series.Gauge
      | None -> Series.Gauge
    in
    let points =
      match Option.bind (J.member "points" s) J.to_list with
      | Some l ->
          List.filter_map
            (function
              | J.List [ J.Num ts; J.Num v ] -> Some (ts, v)
              | _ -> None)
            l
      | None -> []
    in
    Ok (name, kind, points)
  in
  List.fold_left
    (fun acc s ->
      let* acc = acc in
      let* parsed = parse_series s in
      Ok (parsed :: acc))
    (Ok []) series
  |> Result.map List.rev
