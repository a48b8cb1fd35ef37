module BU = Dsig_util.Bytesutil
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric

(* {1 Journal records} *)

type record =
  | Batch_sealed of int64
  | Checkpoint of int64
  | Clean_shutdown of int64
  | Rotation_proposed of { epoch : int; batch_id : int64 }
  | Rotation_confirmed of { epoch : int; batch_id : int64 }

(* Tags 1-3 belong to the per-key format and are never reused: a
   journal holding one is refused as unknown. *)
let encode_record = function
  | Checkpoint seq -> BU.concat [ "\004"; BU.u64_le seq ]
  | Clean_shutdown next_batch_id -> BU.concat [ "\005"; BU.u64_le next_batch_id ]
  | Rotation_proposed { epoch; batch_id } ->
      BU.concat [ "\006"; BU.u64_le batch_id; BU.u32_le (Int32.of_int epoch) ]
  | Rotation_confirmed { epoch; batch_id } ->
      BU.concat [ "\007"; BU.u64_le batch_id; BU.u32_le (Int32.of_int epoch) ]
  | Batch_sealed batch_id -> BU.concat [ "\008"; BU.u64_le batch_id ]

let decode_record data =
  let len = String.length data in
  let bad what = Error (Printf.sprintf "keystate record: %s" what) in
  if len = 0 then bad "empty"
  else
    let need n k = if len <> 1 + n then bad "wrong size" else k () in
    let rotation k =
      need 12 (fun () ->
          let epoch = Int32.to_int (BU.get_u32_le data 9) in
          if epoch < 0 then bad "negative epoch" else Ok (k epoch (BU.get_u64_le data 1)))
    in
    match data.[0] with
    | '\004' -> need 8 (fun () -> Ok (Checkpoint (BU.get_u64_le data 1)))
    | '\005' -> need 8 (fun () -> Ok (Clean_shutdown (BU.get_u64_le data 1)))
    | '\006' -> rotation (fun epoch batch_id -> Rotation_proposed { epoch; batch_id })
    | '\007' -> rotation (fun epoch batch_id -> Rotation_confirmed { epoch; batch_id })
    | '\008' -> need 8 (fun () -> Ok (Batch_sealed (BU.get_u64_le data 1)))
    | c -> bad (Printf.sprintf "unknown tag %d" (Char.code c))

(* {1 Configuration} *)

type config = { dir : string; fsync : bool; checkpoint_every : int }

let config ?(fsync = true) ?(checkpoint_every = 16) dir =
  if checkpoint_every < 0 then invalid_arg "Keystate.config: checkpoint_every must be >= 0";
  { dir; fsync; checkpoint_every }

(* {1 Segment bookkeeping} *)

let seg_name seq = Printf.sprintf "wal-%016Ld" seq
let seg_path dir seq = Filename.concat dir (seg_name seq)

let seg_seq_of_name name =
  if String.length name = 20 && String.sub name 0 4 = "wal-" then
    Int64.of_string_opt (String.sub name 4 16)
  else None

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map seg_seq_of_name
  |> List.sort Int64.compare

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* {1 In-memory state} *)

type state = {
  mutable next : int64; (* past every sealed or proposed batch id *)
  mutable clean : bool; (* last replayed record was a clean marker *)
  mutable epoch : int; (* confirmed rotation epoch *)
  mutable pending : (int * int64) option; (* proposed, unconfirmed rotation *)
}

let state_of_snapshot = function
  | None -> { next = 0L; clean = false; epoch = 0; pending = None }
  | Some (s : Snapshot.t) ->
      { next = s.next_batch_id; clean = false; epoch = s.epoch; pending = s.pending_rotation }

let max_i64 a b = if Int64.compare a b >= 0 then a else b
let past st batch_id = st.next <- max_i64 st.next (Int64.succ batch_id)

let apply st record =
  st.clean <- false;
  match record with
  | Batch_sealed batch_id -> past st batch_id
  | Checkpoint _ -> ()
  | Clean_shutdown next_batch_id ->
      st.next <- max_i64 st.next next_batch_id;
      st.clean <- true
  | Rotation_proposed { epoch; batch_id } ->
      st.pending <- Some (epoch, batch_id);
      past st batch_id
  | Rotation_confirmed { epoch; batch_id } ->
      if epoch > st.epoch then st.epoch <- epoch;
      st.pending <- None;
      past st batch_id

exception Replay of string

(* Read each of [segments] with [read] ([Wal.load] or [Wal.repair]) and
   apply the records of those newer than [after] to [st], oldest first;
   [on_record] sees each applied record first. *)
let replay ?(on_record = ignore) ~read ~after dir st segments =
  try
    Ok
      (List.map
         (fun seq ->
           let r = match read (seg_path dir seq) with Ok r -> r | Error e -> raise (Replay e) in
           if Int64.compare seq after > 0 then
             List.iter
               (fun payload ->
                 match decode_record payload with
                 | Ok record ->
                     on_record record;
                     apply st record
                 | Error e -> raise (Replay (Printf.sprintf "%s: %s" (seg_name seq) e)))
               r.Wal.records;
           (seq, r))
         segments)
  with Replay e -> Error (Printf.sprintf "keystate: %s" e)

(* {1 Recovery report} *)

type report = {
  had_snapshot : bool;
  segments_replayed : int;
  records_replayed : int;
  torn_segments : int;
  torn_bytes : int;
  clean : bool;
  next_batch_id : int64;
  epoch : int;
  rotation_rolled_back : (int * int64) option;
}

(* {1 The journal} *)

type tel = {
  c_recoveries : Metric.Counter.t;
  c_torn : Metric.Counter.t;
  c_snapshots : Metric.Counter.t;
  c_rollbacks : Metric.Counter.t;
  g_segments : Metric.Gauge.t;
}

type t = {
  cfg : config;
  fingerprint : string;
  st : state;
  mutable wal : Wal.t;
  mutable seq : int64; (* active segment sequence *)
  mutable seals_since_checkpoint : int;
  mutable closed : bool;
  lock : Mutex.t;
  tel : tel;
}

let locked t f = Mutex.protect t.lock f

let prune_segments dir ~upto =
  List.iter
    (fun seq ->
      if Int64.compare seq upto <= 0 then
        try Sys.remove (seg_path dir seq) with Sys_error _ -> ())
    (list_segments dir)

let count_segments t =
  Metric.Gauge.set t.tel.g_segments (float_of_int (List.length (list_segments t.cfg.dir)))

let save_snapshot t ~covered =
  Snapshot.save ~dir:t.cfg.dir
    {
      Snapshot.fingerprint = t.fingerprint;
      seq = covered;
      next_batch_id = t.st.next;
      epoch = t.st.epoch;
      pending_rotation = t.st.pending;
    };
  Metric.Counter.incr t.tel.c_snapshots

(* Under the lock: append and sync [record], then apply it to the
   in-memory state. *)
let journal t what record =
  if t.closed then invalid_arg ("Keystate." ^ what ^ ": store is closed");
  Wal.append t.wal (encode_record record);
  Wal.sync t.wal;
  apply t.st record

(* Rotate to a fresh segment: close the active one, persist a snapshot
   covering it, start its successor, and prune what the snapshot
   covers. Called under the lock. *)
let checkpoint_locked t =
  Wal.close t.wal;
  let covered = t.seq in
  save_snapshot t ~covered;
  t.seq <- Int64.succ covered;
  t.wal <- Wal.rotate t.wal (seg_path t.cfg.dir t.seq);
  journal t "checkpoint" (Checkpoint covered);
  prune_segments t.cfg.dir ~upto:covered;
  count_segments t;
  t.seals_since_checkpoint <- 0

let open_ ?(telemetry = Tel.default) ?fingerprint cfg =
  let tel =
    {
      c_recoveries = Tel.counter telemetry "dsig_store_recoveries_total";
      c_torn = Tel.counter telemetry "dsig_store_torn_truncations_total";
      c_snapshots = Tel.counter telemetry "dsig_store_snapshots_total";
      c_rollbacks = Tel.counter telemetry "dsig_rotation_rollbacks_total";
      g_segments = Tel.gauge telemetry "dsig_store_wal_segments";
    }
  in
  match
    mkdir_p cfg.dir;
    Snapshot.load ~dir:cfg.dir
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "keystate: cannot create %s: %s" cfg.dir (Unix.error_message e))
  | Error e -> Error (Printf.sprintf "keystate: %s" e)
  | Ok snap -> (
      let fp_given = Option.value fingerprint ~default:"" in
      let fp_stored = match snap with Some s -> s.Snapshot.fingerprint | None -> "" in
      if fp_given <> "" && fp_stored <> "" && fp_given <> fp_stored then
        Error
          (Printf.sprintf
             "keystate: store %s belongs to config %S, refusing to resume as %S (a key reused \
              under a different scheme is a forgery)"
             cfg.dir fp_stored fp_given)
      else
        let snap_seq = match snap with Some s -> s.Snapshot.seq | None -> 0L in
        let st = state_of_snapshot snap in
        let segments = list_segments cfg.dir in
        let to_replay = List.filter (fun s -> Int64.compare s snap_seq > 0) segments in
        match replay ~read:Wal.load ~after:snap_seq cfg.dir st to_replay with
        | Error _ as e -> e
        | Ok replayed ->
            let torn = List.filter (fun (_, r) -> r.Wal.torn <> None) replayed in
            if torn <> [] then Metric.Counter.incr ~by:(List.length torn) tel.c_torn;
            (* a proposed-but-unconfirmed rotation never survives the
               process: the staged batch's key material lived only in
               memory, so recovery clears the proposal and the epoch
               stays; [next] is already past the staged id *)
            let rotation_rolled_back = st.pending in
            if st.pending <> None then begin
              st.pending <- None;
              Metric.Counter.incr tel.c_rollbacks
            end;
            let fresh_store = snap = None && segments = [] in
            let max_seg = List.fold_left max_i64 snap_seq segments in
            let t =
              {
                cfg;
                fingerprint = (if fp_given <> "" then fp_given else fp_stored);
                st;
                wal =
                  Wal.create ~telemetry ~fsync:cfg.fsync (seg_path cfg.dir (Int64.succ max_seg));
                seq = Int64.succ max_seg;
                seals_since_checkpoint = 0;
                closed = false;
                lock = Mutex.create ();
                tel;
              }
            in
            (* fold recovery into a snapshot right away and prune the
               replayed segments, torn tails included: nothing is
               written before replay succeeds, so a refused store is
               left as it was *)
            save_snapshot t ~covered:max_seg;
            prune_segments cfg.dir ~upto:max_seg;
            count_segments t;
            if not fresh_store then Metric.Counter.incr tel.c_recoveries;
            Ok
              ( t,
                {
                  had_snapshot = snap <> None;
                  segments_replayed = List.length replayed;
                  records_replayed =
                    List.fold_left (fun n (_, r) -> n + List.length r.Wal.records) 0 replayed;
                  torn_segments = List.length torn;
                  torn_bytes =
                    List.fold_left
                      (fun n (_, r) -> n + r.Wal.total_bytes - r.Wal.valid_bytes)
                      0 torn;
                  clean = fresh_store || st.clean;
                  next_batch_id = st.next;
                  epoch = st.epoch;
                  rotation_rolled_back;
                } ))

let seal t ~batch_id =
  locked t (fun () ->
      journal t "seal" (Batch_sealed batch_id);
      t.seals_since_checkpoint <- t.seals_since_checkpoint + 1;
      if t.cfg.checkpoint_every > 0 && t.seals_since_checkpoint >= t.cfg.checkpoint_every then
        checkpoint_locked t)

(* {2 Rotation (key lifecycle plane)}

   The cutover protocol is propose -> confirm. [propose_rotation] is
   journaled before the staged batch's seal; a crash before
   [confirm_rotation] recovers by clearing the proposal (the staged
   batch's key material died with the process), and the epoch stays.
   [confirm_rotation] is a single atomic record. *)

let propose_rotation t ~epoch ~batch_id =
  locked t (fun () ->
      if t.st.pending <> None then
        invalid_arg "Keystate.propose_rotation: a rotation is already pending";
      if epoch <= t.st.epoch then invalid_arg "Keystate.propose_rotation: epoch must advance";
      journal t "propose_rotation" (Rotation_proposed { epoch; batch_id }))

let confirm_rotation t ~epoch ~batch_id =
  locked t (fun () ->
      (match t.st.pending with
      | Some (e, b) when e = epoch && Int64.equal b batch_id -> ()
      | Some _ | None ->
          invalid_arg "Keystate.confirm_rotation: no matching proposed rotation");
      journal t "confirm_rotation" (Rotation_confirmed { epoch; batch_id }))

let epoch t = locked t (fun () -> t.st.epoch)
let pending_rotation t = locked t (fun () -> t.st.pending)

let checkpoint t =
  locked t (fun () ->
      if t.closed then invalid_arg "Keystate.checkpoint: store is closed";
      checkpoint_locked t)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        journal t "close" (Clean_shutdown t.st.next);
        Wal.close t.wal;
        t.closed <- true
      end)

let crash t =
  locked t (fun () ->
      if not t.closed then begin
        Wal.abort t.wal;
        t.closed <- true
      end)

let next_batch_id t = locked t (fun () -> t.st.next)
let wal_path t = Wal.path t.wal
let synced_bytes t = Wal.synced_bytes t.wal

(* {1 Read-only scan} *)

type scan = {
  scan_snapshot : Snapshot.t option;
  scan_segments : (int64 * Wal.recovery) list;
  scan_next_batch_id : int64;
  scan_clean : bool;
  scan_torn : bool;
  scan_epoch : int;
  scan_pending_rotation : (int * int64) option;
  scan_rotations : (int * int64) list;
}

let scan ~dir =
  if not (Sys.file_exists dir) then Error (Printf.sprintf "keystate: no store at %s" dir)
  else
    match Snapshot.load ~dir with
    | Error e -> Error (Printf.sprintf "keystate: %s" e)
    | Ok snap -> (
        let snap_seq = match snap with Some s -> s.Snapshot.seq | None -> 0L in
        let st = state_of_snapshot snap in
        let rotations = ref [] in
        let on_record = function
          | Rotation_confirmed { epoch; batch_id } -> rotations := (epoch, batch_id) :: !rotations
          | _ -> ()
        in
        match replay ~on_record ~read:Wal.load ~after:snap_seq dir st (list_segments dir) with
        | Error _ as e -> e
        | Ok segments ->
            Ok
              {
                scan_snapshot = snap;
                scan_segments = segments;
                scan_next_batch_id = st.next;
                scan_clean = st.clean;
                scan_torn = List.exists (fun (_, r) -> r.Wal.torn <> None) segments;
                scan_epoch = st.epoch;
                scan_pending_rotation = st.pending;
                scan_rotations = List.rev !rotations;
              })
