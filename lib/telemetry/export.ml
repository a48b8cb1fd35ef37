module H = Metric.Histogram
module S = Registry.Snapshot

(* shortest decimal that round-trips common bucket bounds and sums *)
let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let fbound v = if v = infinity then "+Inf" else fnum v

(* --- JSON --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_number = fnum
let json_obj fields = "{" ^ String.concat "," fields ^ "}"
let json_field k v = Printf.sprintf "\"%s\":%s" (json_escape k) v

let json_histogram (h : H.snapshot) =
  let buckets =
    List.filter_map
      (fun i ->
        if h.H.counts.(i) = 0 then None
        else
          Some
            (json_obj
               [
                 json_field "le" (Printf.sprintf "\"%s\"" (fbound (H.bucket_upper_bound i)));
                 json_field "count" (string_of_int h.H.counts.(i));
               ]))
      (List.init H.num_buckets Fun.id)
  in
  let stats =
    if h.H.n = 0 then []
    else
      [
        json_field "mean" (fnum (H.mean h));
        json_field "min" (fnum h.H.vmin);
        json_field "max" (fnum h.H.vmax);
        json_field "p50" (fnum (H.percentile h 50.0));
        json_field "p90" (fnum (H.percentile h 90.0));
        json_field "p99" (fnum (H.percentile h 99.0));
      ]
  in
  json_obj
    ([ json_field "count" (string_of_int h.H.n); json_field "sum" (fnum h.H.total) ]
    @ stats
    @ [ json_field "buckets" ("[" ^ String.concat "," buckets ^ "]") ])

(* nan is not representable in JSON: absent planes render as null *)
let fnum_or_null v = if Float.is_nan v then "null" else fnum v

let json_plane lc plane =
  let s = Lifecycle.plane_snapshot lc plane in
  let stats =
    if s.H.n = 0 then []
    else
      [
        json_field "p50" (fnum (H.percentile s 50.0));
        json_field "p99" (fnum (H.percentile s 99.0));
        json_field "p999" (fnum (H.percentile s 99.9));
        json_field "mean" (fnum (H.mean s));
        json_field "max" (fnum s.H.vmax);
      ]
  in
  json_obj (json_field "count" (string_of_int s.H.n) :: stats)

let json_lifecycle lc =
  json_obj
    [
      json_field "started" (string_of_int (Lifecycle.started lc));
      json_field "completed" (string_of_int (Lifecycle.completed lc));
      json_field "full" (string_of_int (Lifecycle.full lc));
      json_field "planes"
        (json_obj
           (List.map
              (fun p -> json_field (Lifecycle.plane_name p) (json_plane lc p))
              Lifecycle.[ Sign; Announce; Verify; End_to_end ]));
    ]

let json_span (sp : Lifecycle.span) =
  json_obj
    [
      json_field "trace_id" (Printf.sprintf "\"%Lx\"" sp.Lifecycle.sp_trace_id);
      json_field "origin" (string_of_int sp.Lifecycle.sp_origin);
      json_field "birth_us" (fnum sp.Lifecycle.sp_birth_us);
      json_field "sign_us" (fnum_or_null sp.Lifecycle.sp_sign_us);
      json_field "announce_us" (fnum_or_null sp.Lifecycle.sp_announce_us);
      json_field "verify_us" (fnum sp.Lifecycle.sp_verify_us);
      json_field "end_us" (fnum sp.Lifecycle.sp_end_us);
      json_field "e2e_us" (fnum sp.Lifecycle.sp_e2e_us);
    ]

let json_spans lc =
  "[" ^ String.concat "," (List.map json_span (Lifecycle.spans lc)) ^ "]"

let json ?lifecycle snap =
  let section f =
    json_obj
      (List.filter_map (fun (name, v) -> Option.map (json_field name) (f v)) snap)
  in
  let counters = section (function S.Counter n -> Some (string_of_int n) | _ -> None) in
  let gauges = section (function S.Gauge v -> Some (fnum v) | _ -> None) in
  let histograms = section (function S.Histogram h -> Some (json_histogram h) | _ -> None) in
  json_obj
    ([
       json_field "counters" counters;
       json_field "gauges" gauges;
       json_field "histograms" histograms;
     ]
    @ match lifecycle with None -> [] | Some lc -> [ json_field "lifecycle" (json_lifecycle lc) ])

(* --- Prometheus text exposition --- *)

let prom_name name =
  let mapped =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
      name
  in
  (* exposition names may not be empty or start with a digit *)
  if mapped = "" then "_"
  else match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

let prometheus snap =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* distinct raw names may sanitize to the same string ("a.b" and
     "a-b"); suffix later collisions deterministically (snapshot order
     is sorted by raw name) so no two series share a name *)
  let used = Hashtbl.create 16 in
  let dedupe name =
    match Hashtbl.find_opt used name with
    | None ->
        Hashtbl.replace used name 1;
        name
    | Some n ->
        Hashtbl.replace used name (n + 1);
        Printf.sprintf "%s_%d" name (n + 1)
  in
  (* HELP docstrings escape backslash and newline per the exposition
     format; carrying the raw registry name documents the sanitization *)
  let help_escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  in
  let header name ~raw kind =
    line "# HELP %s DSig metric %s" name (help_escape raw);
    line "# TYPE %s %s" name kind
  in
  List.iter
    (fun (raw, v) ->
      let name = dedupe (prom_name raw) in
      match v with
      | S.Counter n ->
          header name ~raw "counter";
          line "%s %d" name n
      | S.Gauge g ->
          header name ~raw "gauge";
          line "%s %s" name (fnum g)
      | S.Histogram h ->
          header name ~raw "histogram";
          let acc = ref 0 in
          for i = 0 to H.num_buckets - 2 do
            if h.H.counts.(i) > 0 then begin
              acc := !acc + h.H.counts.(i);
              line "%s_bucket{le=\"%s\"} %d" name (fbound (H.bucket_upper_bound i)) !acc
            end
          done;
          line "%s_bucket{le=\"+Inf\"} %d" name h.H.n;
          line "%s_sum %s" name (fnum h.H.total);
          line "%s_count %d" name h.H.n)
    snap;
  Buffer.contents buf

(* --- human summary --- *)

let pp_summary ppf snap =
  let counters = List.filter_map (function n, S.Counter v -> Some (n, v) | _ -> None) snap in
  let gauges = List.filter_map (function n, S.Gauge v -> Some (n, v) | _ -> None) snap in
  let hists = List.filter_map (function n, S.Histogram h -> Some (n, h) | _ -> None) snap in
  let width =
    List.fold_left (fun acc (n, _) -> Stdlib.max acc (String.length n)) 0 snap
  in
  let section title pp items =
    if items <> [] then begin
      Fmt.pf ppf "%s:@." title;
      List.iter (fun (n, v) -> Fmt.pf ppf "  %-*s  %a@." width n pp v) items
    end
  in
  section "counters" (fun ppf v -> Fmt.int ppf v) counters;
  section "gauges" (fun ppf v -> Fmt.float ppf v) gauges;
  section "histograms"
    (fun ppf h ->
      if h.H.n = 0 then Fmt.string ppf "n=0"
      else
        Fmt.pf ppf "n=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g" h.H.n (H.mean h)
          (H.percentile h 50.0) (H.percentile h 90.0) (H.percentile h 99.0) h.H.vmax)
    hists

let summary snap = Fmt.str "%a" pp_summary snap
