module BU = Dsig_util.Bytesutil
module Wal = Dsig_store.Wal
module Logtree = Dsig_merkle.Logtree
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric

(* --- entries --- *)

type entry = { signer : int; op : string; signature : string }

let encode_entry { signer; op; signature } =
  BU.concat
    [
      BU.u64_le (Int64.of_int signer);
      BU.u32_le (Int32.of_int (String.length op));
      op;
      BU.u32_le (Int32.of_int (String.length signature));
      signature;
    ]

let decode_entry s =
  let len = String.length s in
  if len < 12 then Error "short entry header"
  else begin
    let signer = Int64.to_int (BU.get_u64_le s 0) in
    let op_len = Int32.to_int (BU.get_u32_le s 8) in
    if op_len < 0 || 12 + op_len + 4 > len then Error "bad entry op length"
    else begin
      let sig_len = Int32.to_int (BU.get_u32_le s (12 + op_len)) in
      if sig_len < 0 || 16 + op_len + sig_len <> len then Error "bad entry signature length"
      else if signer < 0 then Error "negative signer id"
      else
        Ok
          {
            signer;
            op = String.sub s 12 op_len;
            signature = String.sub s (16 + op_len) sig_len;
          }
    end
  end

(* --- durable tree anchor (snapshot) --- *)

(* "DSIGTLS1" | u32 LE CRC of body | body = covered seq u64 | size u64 |
   root 32. Written atomically (temp + rename) like Dsig_store.Snapshot;
   unlike the key-state snapshot it prunes nothing — a transparency log
   keeps every entry — it only anchors recovery and bounds divergence. *)
let snap_magic = "DSIGTLS1"
let snap_filename = "anchor"

let encode_anchor ~seq ~size ~root =
  let body = BU.concat [ BU.u64_le seq; BU.u64_le (Int64.of_int size); root ] in
  BU.concat [ snap_magic; BU.u32_le (Wal.crc32 body); body ]

let decode_anchor s =
  if String.length s <> 8 + 4 + 48 then Error "anchor: bad size"
  else if String.sub s 0 8 <> snap_magic then Error "anchor: bad magic"
  else begin
    let body = String.sub s 12 48 in
    if BU.get_u32_le s 8 <> Wal.crc32 body then Error "anchor: bad crc"
    else begin
      let size = Int64.to_int (BU.get_u64_le body 8) in
      if size < 0 then Error "anchor: negative size"
      else Ok (BU.get_u64_le body 0, size, String.sub body 16 32)
    end
  end

let write_anchor ~dir ~seq ~size ~root =
  let path = Filename.concat dir snap_filename in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (encode_anchor ~seq ~size ~root);
      flush oc;
      (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error (_, _, _) -> ()));
  Sys.rename tmp path

(* --- segments --- *)

let seg_name seq = Printf.sprintf "log-%016Ld" seq

let seg_seq name =
  if String.length name = 20 && String.sub name 0 4 = "log-" then
    Int64.of_string_opt (String.sub name 4 16)
  else None

let list_segments dir =
  Sys.readdir dir |> Array.to_list |> List.filter_map seg_seq |> List.sort Int64.compare

(* --- the log --- *)

type recovery = {
  entries : int;
  segments : int;
  torn_segments : int;
  torn_bytes : int;
  anchor_size : int;  (** tree size the on-disk anchor covered; 0 = none *)
}

type tel = {
  c_appends : Metric.Counter.t;
  c_checkpoints : Metric.Counter.t;
  c_recoveries : Metric.Counter.t;
  c_incl : Metric.Counter.t;
  c_cons : Metric.Counter.t;
  g_entries : Metric.Gauge.t;
  g_segments : Metric.Gauge.t;
  h_append : Metric.Histogram.t;
  h_proof : Metric.Histogram.t;
  bundle : Tel.t;
}

(* encoded entries, append-only (entry i = leaf i) *)
type entries = { mutable arr : string array; mutable len : int }

let entries_push e s =
  if e.len = Array.length e.arr then begin
    let b = Array.make (2 * Array.length e.arr) "" in
    Array.blit e.arr 0 b 0 e.len;
    e.arr <- b
  end;
  e.arr.(e.len) <- s;
  e.len <- e.len + 1

type t = {
  dir : string;
  tree : Logtree.t;
  entries : entries;
  mutable wal : Wal.t;
  mutable seq : int64;  (** active segment sequence *)
  mutable active_appends : int;  (** appends into the active segment *)
  mutable latest : Checkpoint.t option;
  mutable closed : bool;
  mu : Mutex.t;
  tel : tel;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let tel_of telemetry =
  {
    c_appends = Tel.counter telemetry "dsig_translog_appends_total";
    c_checkpoints = Tel.counter telemetry "dsig_translog_checkpoints_total";
    c_recoveries = Tel.counter telemetry "dsig_translog_recoveries_total";
    c_incl = Tel.counter telemetry "dsig_translog_inclusion_proofs_total";
    c_cons = Tel.counter telemetry "dsig_translog_consistency_proofs_total";
    g_entries = Tel.gauge telemetry "dsig_translog_entries";
    g_segments = Tel.gauge telemetry "dsig_translog_segments";
    h_append = Tel.histogram telemetry "dsig_translog_append_us";
    h_proof = Tel.histogram telemetry "dsig_translog_proof_us";
    bundle = telemetry;
  }

let open_ ?(telemetry = Tel.default) ?(group_commit = 8) ?(fsync = true) ~dir () =
  match
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    Ok ()
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "translog: cannot create %s: %s" dir (Unix.error_message e))
  | Error e -> Error e
  | Ok () -> (
      let tel = tel_of telemetry in
      let anchor_path = Filename.concat dir snap_filename in
      let anchor =
        if Sys.file_exists anchor_path then begin
          let ic = open_in_bin anchor_path in
          let s =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          Result.map Option.some (decode_anchor s)
        end
        else Ok None
      in
      match anchor with
      | Error e -> Error ("translog: " ^ e)
      | Ok anchor -> (
          let tree = Logtree.create () in
          let entries = { arr = Array.make 64 ""; len = 0 } in
          let segments = list_segments dir in
          let torn_segments = ref 0 and torn_bytes = ref 0 in
          let replay_error = ref None in
          (* replay every segment oldest-first, truncating torn tails so
             the gap a crash tore off can never shadow later appends —
             the transparency-plane version of burn-the-gap: what was
             not durable is discarded, never silently re-grown *)
          List.iter
            (fun seq ->
              if !replay_error = None then begin
                let path = Filename.concat dir (seg_name seq) in
                match Wal.repair path with
                | Error e -> replay_error := Some (Printf.sprintf "%s: %s" (seg_name seq) e)
                | Ok r ->
                    (match r.Wal.torn with
                    | Some _ ->
                        incr torn_segments;
                        torn_bytes := !torn_bytes + (r.Wal.total_bytes - r.Wal.valid_bytes)
                    | None -> ());
                    List.iter
                      (fun record ->
                        entries_push entries record;
                        ignore (Logtree.append tree record))
                      r.Wal.records
              end)
            segments;
          match !replay_error with
          | Some e -> Error ("translog: " ^ e)
          | None -> (
              (* the anchor pins what a pre-crash checkpoint attested:
                 replay must reproduce exactly that root at that size *)
              let anchor_size, anchor_ok =
                match anchor with
                | None -> (0, true)
                | Some (_, size, root) ->
                    ( size,
                      Logtree.size tree >= size
                      && Dsig_util.Bytesutil.equal_ct (Logtree.root_at tree size) root )
              in
              if not anchor_ok then
                Error
                  (Printf.sprintf
                     "translog: replayed log diverged from anchor (anchor size %d, replayed %d)"
                     anchor_size (Logtree.size tree))
              else begin
                let seq =
                  match List.rev segments with last :: _ -> last | [] -> 0L
                in
                match Wal.create ~telemetry ~group_commit ~fsync (Filename.concat dir (seg_name seq)) with
                | exception Sys_error e -> Error ("translog: " ^ e)
                | wal ->
                    Metric.Counter.incr tel.c_recoveries;
                    Metric.Gauge.set tel.g_entries (float_of_int (Logtree.size tree));
                    Metric.Gauge.set tel.g_segments
                      (float_of_int (max 1 (List.length segments)));
                    Ok
                      ( {
                          dir;
                          tree;
                          entries;
                          wal;
                          seq;
                          active_appends = 0;
                          latest = None;
                          closed = false;
                          mu = Mutex.create ();
                          tel;
                        },
                        {
                          entries = Logtree.size tree;
                          segments = List.length segments;
                          torn_segments = !torn_segments;
                          torn_bytes = !torn_bytes;
                          anchor_size;
                        } )
              end)))

let size t = locked t (fun () -> Logtree.size t.tree)
let root t = locked t (fun () -> Logtree.root t.tree)

let root_at t m = locked t (fun () -> Logtree.root_at t.tree m)

let entry t i =
  locked t (fun () ->
      if i < 0 || i >= t.entries.len then None
      else match decode_entry t.entries.arr.(i) with Ok e -> Some e | Error _ -> None)

let leaf t i =
  locked t (fun () ->
      if i < 0 || i >= t.entries.len then None else Some t.entries.arr.(i))

let append t ~signer ~op ~signature =
  locked t (fun () ->
      if t.closed then invalid_arg "Translog.append: log is closed";
      let t0 = Tel.now t.tel.bundle in
      let record = encode_entry { signer; op; signature } in
      (* WAL first: the entry is never in the tree without being at
         least OS-durable, so a crash can only lose a suffix *)
      Wal.append t.wal record;
      t.active_appends <- t.active_appends + 1;
      entries_push t.entries record;
      let index = Logtree.append t.tree record in
      Metric.Counter.incr t.tel.c_appends;
      Metric.Gauge.set t.tel.g_entries (float_of_int (Logtree.size t.tree));
      Metric.Histogram.add t.tel.h_append (Tel.now t.tel.bundle -. t0);
      index)

let prove_inclusion t ?size ~index () =
  locked t (fun () ->
      let n = Logtree.size t.tree in
      let size = Option.value ~default:n size in
      if size <= 0 || size > n then Error (Printf.sprintf "size %d out of range (log has %d)" size n)
      else if index < 0 || index >= size then
        Error (Printf.sprintf "index %d out of range (size %d)" index size)
      else begin
        let t0 = Tel.now t.tel.bundle in
        let p = Logtree.inclusion_proof t.tree ~size ~index () in
        Metric.Counter.incr t.tel.c_incl;
        Metric.Histogram.add t.tel.h_proof (Tel.now t.tel.bundle -. t0);
        Ok p
      end)

let prove_consistency t ~old_size ~new_size =
  locked t (fun () ->
      let n = Logtree.size t.tree in
      if old_size <= 0 || new_size < old_size || new_size > n then
        Error (Printf.sprintf "sizes %d..%d out of range (log has %d)" old_size new_size n)
      else begin
        let t0 = Tel.now t.tel.bundle in
        let p = Logtree.consistency_proof t.tree ~old_size ~new_size in
        Metric.Counter.incr t.tel.c_cons;
        Metric.Histogram.add t.tel.h_proof (Tel.now t.tel.bundle -. t0);
        Ok p
      end)

let sync t = locked t (fun () -> Wal.sync t.wal)

let checkpoint t ~log_id ~sign =
  let to_sign =
    locked t (fun () ->
        if t.closed then invalid_arg "Translog.checkpoint: log is closed";
        let size = Logtree.size t.tree in
        match t.latest with
        | Some cp when cp.Checkpoint.tree_size = size && cp.Checkpoint.log_id = log_id ->
            Error cp
        | _ ->
            (* everything a published checkpoint covers must be durable
               first — a head over data a crash can lose is a split view
               waiting to happen *)
            Wal.sync t.wal;
            let root = Logtree.root t.tree in
            write_anchor ~dir:t.dir ~seq:t.seq ~size ~root;
            (* rotate so segments stay bounded by checkpoint cadence;
               nothing is pruned — the log is append-only forever *)
            if t.active_appends > 0 then begin
              t.seq <- Int64.add t.seq 1L;
              t.wal <- Wal.rotate t.wal (Filename.concat t.dir (seg_name t.seq));
              t.active_appends <- 0;
              Metric.Gauge.set t.tel.g_segments
                (float_of_int (List.length (list_segments t.dir)))
            end;
            Ok (size, root))
  in
  match to_sign with
  | Error cached -> cached
  | Ok (size, root) ->
      (* sign outside the lock: the closure may be slow (a full DSig
         signer) or itself read the log, and must not deadlock *)
      let cp = Checkpoint.make ~log_id ~tree_size:size ~root ~sign in
      locked t (fun () ->
          (match t.latest with
          | Some prev when prev.Checkpoint.tree_size > size -> ()
          | _ -> t.latest <- Some cp);
          Metric.Counter.incr t.tel.c_checkpoints);
      cp

let latest_checkpoint t = locked t (fun () -> t.latest)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        Wal.close t.wal;
        t.closed <- true
      end)

let crash t =
  locked t (fun () ->
      if not t.closed then begin
        Wal.abort t.wal;
        t.closed <- true
      end)
