module BU = Dsig_util.Bytesutil
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric

let magic = "DSIGWAL1"
let header_bytes = 8 (* u32 length + u32 crc *)

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320). *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

type tel = {
  c_fsyncs : Metric.Counter.t;
  h_fsync : Metric.Histogram.t;
  h_batch : Metric.Histogram.t;
  bundle : Tel.t;
}

type t = {
  path : string;
  oc : out_channel;
  group_commit : int;
  fsync : bool;
  mutable pending : int; (* appends since the last sync point *)
  appended : int ref;
      (* what [dsig_store_appends_total] probes: the probe holds this,
         not the handle; [rotate] shares it *)
  mutable written_bytes : int;
  mutable synced_bytes : int;
  mutable closed : bool;
  tel : tel;
}

let frame payload =
  BU.concat
    [ BU.u32_le (Int32.of_int (String.length payload)); BU.u32_le (crc32 payload); payload ]

let open_channel path =
  let fresh = not (Sys.file_exists path) in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  if fresh then begin
    output_string oc magic;
    flush oc
  end;
  (oc, out_channel_length oc)

let create ?(telemetry = Tel.default) ?(group_commit = 8) ?(fsync = true) path =
  if group_commit <= 0 then invalid_arg "Wal.create: group_commit must be positive";
  let oc, size = open_channel path in
  let appended = ref 0 in
  let tel =
    {
      c_fsyncs = Tel.counter telemetry "dsig_store_fsyncs_total";
      h_fsync = Tel.histogram telemetry "dsig_store_fsync_us";
      h_batch = Tel.histogram telemetry "dsig_store_group_commit_batch";
      bundle = telemetry;
    }
  in
  (* every handle [rotate] makes shares [tel], so it owns the probe *)
  Tel.probe telemetry ~owner:tel "dsig_store_appends_total" (fun () -> !appended);
  {
    path;
    oc;
    group_commit;
    fsync;
    pending = 0;
    appended;
    written_bytes = size;
    synced_bytes = size;
    closed = false;
    tel;
  }

let sync t =
  if (not t.closed) && t.pending > 0 then begin
    flush t.oc;
    let t0 = Tel.now t.tel.bundle in
    if t.fsync then Unix.fsync (Unix.descr_of_out_channel t.oc);
    Metric.Histogram.add t.tel.h_fsync (Tel.now t.tel.bundle -. t0);
    Metric.Counter.incr t.tel.c_fsyncs;
    Metric.Histogram.add t.tel.h_batch (float_of_int t.pending);
    t.synced_bytes <- t.written_bytes;
    t.pending <- 0
  end

let append t payload =
  if t.closed then invalid_arg "Wal.append: log is closed";
  (* write through to the OS on every append: a process crash loses
     nothing, only an OS crash can lose the unfsynced suffix *)
  output_string t.oc (frame payload);
  flush t.oc;
  t.written_bytes <- t.written_bytes + header_bytes + String.length payload;
  incr t.appended;
  t.pending <- t.pending + 1;
  if t.pending >= t.group_commit then sync t

let close t =
  if not t.closed then begin
    sync t;
    close_out_noerr t.oc;
    t.closed <- true
  end

let rotate t path =
  close t;
  let oc, size = open_channel path in
  { t with path; oc; pending = 0; written_bytes = size; synced_bytes = size; closed = false }

let abort t =
  if not t.closed then begin
    (* drop the handle without flushing the channel buffer — what a
       SIGKILL would do (appends flush eagerly, so nothing is buffered
       in practice; the point is to skip the final sync) *)
    (try Unix.close (Unix.descr_of_out_channel t.oc) with Unix.Unix_error _ -> ());
    t.closed <- true
  end

let path t = t.path
let appended t = !(t.appended)
let synced_bytes t = t.synced_bytes

type recovery = {
  records : string list;
  valid_bytes : int;
  total_bytes : int;
  torn : string option;
}

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        really_input_string ic len)
  with
  | exception Sys_error e -> Error e
  | data ->
      let len = String.length data in
      if len < String.length magic || String.sub data 0 (String.length magic) <> magic then
        Error (Printf.sprintf "%s: bad or missing WAL magic" path)
      else begin
        let pos = ref (String.length magic) in
        let records = ref [] in
        let torn = ref None in
        let stop reason = torn := Some reason in
        while !torn = None && !pos < len do
          if !pos + header_bytes > len then stop "short header"
          else begin
            let rlen = Int32.to_int (BU.get_u32_le data !pos) in
            let crc = BU.get_u32_le data (!pos + 4) in
            if rlen < 0 then stop "bad length"
            else if !pos + header_bytes + rlen > len then stop "short payload"
            else begin
              let payload = String.sub data (!pos + header_bytes) rlen in
              if crc32 payload <> crc then stop "bad crc"
              else begin
                records := payload :: !records;
                pos := !pos + header_bytes + rlen
              end
            end
          end
        done;
        Ok { records = List.rev !records; valid_bytes = !pos; total_bytes = len; torn = !torn }
      end

let repair path =
  match load path with
  | Error _ as e -> e
  | Ok r ->
      if r.valid_bytes < r.total_bytes then begin
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.ftruncate fd r.valid_bytes;
            Unix.fsync fd)
      end;
      Ok r
