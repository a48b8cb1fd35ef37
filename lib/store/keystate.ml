module BU = Dsig_util.Bytesutil
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric

(* {1 Journal records} *)

type record =
  | Key_reserved of { batch_id : int64; key_index : int }
  | Batch_sealed of { batch_id : int64; size : int }
  | Batch_retired of int64
  | Checkpoint of int64
  | Clean_shutdown of int64
  | Rotation_proposed of { epoch : int; batch_id : int64 }
  | Rotation_confirmed of { epoch : int; batch_id : int64 }

let encode_record = function
  | Key_reserved { batch_id; key_index } ->
      BU.concat [ "\001"; BU.u64_le batch_id; BU.u32_le (Int32.of_int key_index) ]
  | Batch_sealed { batch_id; size } ->
      BU.concat [ "\002"; BU.u64_le batch_id; BU.u32_le (Int32.of_int size) ]
  | Batch_retired batch_id -> BU.concat [ "\003"; BU.u64_le batch_id ]
  | Checkpoint seq -> BU.concat [ "\004"; BU.u64_le seq ]
  | Clean_shutdown next_batch_id -> BU.concat [ "\005"; BU.u64_le next_batch_id ]
  | Rotation_proposed { epoch; batch_id } ->
      BU.concat [ "\006"; BU.u64_le batch_id; BU.u32_le (Int32.of_int epoch) ]
  | Rotation_confirmed { epoch; batch_id } ->
      BU.concat [ "\007"; BU.u64_le batch_id; BU.u32_le (Int32.of_int epoch) ]

let decode_record data =
  let len = String.length data in
  let bad what = Error (Printf.sprintf "keystate record: %s" what) in
  if len = 0 then bad "empty"
  else
    let need n k = if len <> 1 + n then bad "wrong size" else k () in
    match data.[0] with
    | '\001' ->
        need 12 (fun () ->
            let key_index = Int32.to_int (BU.get_u32_le data 9) in
            if key_index < 0 then bad "negative key index"
            else Ok (Key_reserved { batch_id = BU.get_u64_le data 1; key_index }))
    | '\002' ->
        need 12 (fun () ->
            let size = Int32.to_int (BU.get_u32_le data 9) in
            if size <= 0 then bad "non-positive batch size"
            else Ok (Batch_sealed { batch_id = BU.get_u64_le data 1; size }))
    | '\003' -> need 8 (fun () -> Ok (Batch_retired (BU.get_u64_le data 1)))
    | '\004' -> need 8 (fun () -> Ok (Checkpoint (BU.get_u64_le data 1)))
    | '\005' -> need 8 (fun () -> Ok (Clean_shutdown (BU.get_u64_le data 1)))
    | '\006' ->
        need 12 (fun () ->
            let epoch = Int32.to_int (BU.get_u32_le data 9) in
            if epoch < 0 then bad "negative epoch"
            else Ok (Rotation_proposed { epoch; batch_id = BU.get_u64_le data 1 }))
    | '\007' ->
        need 12 (fun () ->
            let epoch = Int32.to_int (BU.get_u32_le data 9) in
            if epoch < 0 then bad "negative epoch"
            else Ok (Rotation_confirmed { epoch; batch_id = BU.get_u64_le data 1 }))
    | c -> bad (Printf.sprintf "unknown tag %d" (Char.code c))

(* {1 Configuration} *)

type config = { dir : string; group_commit : int; fsync : bool; checkpoint_every : int }

let config ?(group_commit = 8) ?(fsync = true) ?(checkpoint_every = 16) dir =
  if group_commit <= 0 then invalid_arg "Keystate.config: group_commit must be positive";
  if checkpoint_every < 0 then invalid_arg "Keystate.config: checkpoint_every must be >= 0";
  { dir; group_commit; fsync; checkpoint_every }

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

type batch_state = { size : int; high_water : int; retired : bool }

type batch = { mutable b_size : int; mutable b_high_water : int; mutable b_retired : bool }

type state = {
  table : (int64, batch) Hashtbl.t;
  mutable seal_order : int64 list; (* newest first; reversed on read *)
  mutable next : int64;
  mutable last_reserved : int64 option; (* batch of the newest reserve *)
  mutable clean : bool; (* last replayed record was a clean marker *)
  mutable epoch : int; (* confirmed rotation epoch *)
  mutable pending : (int * int64) option; (* proposed, unconfirmed rotation *)
}

let fresh_state () =
  {
    table = Hashtbl.create 17;
    seal_order = [];
    next = 0L;
    last_reserved = None;
    clean = false;
    epoch = 0;
    pending = None;
  }

let state_of_snapshot (snap : Snapshot.t) =
  let st = fresh_state () in
  List.iter
    (fun (b : Snapshot.batch) ->
      Hashtbl.replace st.table b.id
        { b_size = b.size; b_high_water = b.high_water; b_retired = b.retired };
      st.seal_order <- b.id :: st.seal_order)
    snap.batches;
  st.next <- snap.next_batch_id;
  st.epoch <- snap.epoch;
  st.pending <- snap.pending_rotation;
  st

let max_i64 a b = if Int64.compare a b >= 0 then a else b

let find_or_add st batch_id =
  match Hashtbl.find_opt st.table batch_id with
  | Some b -> b
  | None ->
      (* a reserve whose seal record did not survive: track it with an
         unknown size so replay stays total *)
      let b = { b_size = 0; b_high_water = -1; b_retired = false } in
      Hashtbl.replace st.table batch_id b;
      st.seal_order <- batch_id :: st.seal_order;
      b

let apply st = function
  | Key_reserved { batch_id; key_index } ->
      let b = find_or_add st batch_id in
      if key_index > b.b_high_water then b.b_high_water <- key_index;
      st.last_reserved <- Some batch_id;
      st.next <- max_i64 st.next (Int64.add batch_id 1L);
      st.clean <- false
  | Batch_sealed { batch_id; size } ->
      let b = find_or_add st batch_id in
      b.b_size <- size;
      st.next <- max_i64 st.next (Int64.add batch_id 1L);
      st.clean <- false
  | Batch_retired batch_id ->
      let b = find_or_add st batch_id in
      b.b_retired <- true;
      st.clean <- false
  | Checkpoint _ -> st.clean <- false
  | Clean_shutdown next_batch_id ->
      st.next <- max_i64 st.next next_batch_id;
      st.clean <- true
  | Rotation_proposed { epoch; batch_id } ->
      st.pending <- Some (epoch, batch_id);
      st.next <- max_i64 st.next (Int64.add batch_id 1L);
      st.clean <- false
  | Rotation_confirmed { epoch; batch_id } ->
      (* the cutover is one atomic record: everything sealed before the
         staged batch retires with it *)
      Hashtbl.iter
        (fun id b -> if Int64.compare id batch_id < 0 then b.b_retired <- true)
        st.table;
      if epoch > st.epoch then st.epoch <- epoch;
      st.pending <- None;
      st.next <- max_i64 st.next (Int64.add batch_id 1L);
      st.clean <- false

let live_batches st =
  List.rev st.seal_order
  |> List.filter_map (fun id ->
         match Hashtbl.find_opt st.table id with
         | Some b when not b.b_retired ->
             Some (id, { size = b.b_size; high_water = b.b_high_water; retired = false })
         | _ -> None)

let snapshot_batches st =
  List.rev st.seal_order
  |> List.filter_map (fun id ->
         match Hashtbl.find_opt st.table id with
         | Some b ->
             Some
               {
                 Snapshot.id;
                 size = b.b_size;
                 high_water = b.b_high_water;
                 retired = b.b_retired;
               }
         | None -> None)

(* Burn the gap: the unfsynced suffix held at most [group_commit - 1]
   records, any of which could have been reservations that left the
   process as signatures. Consumption is sequential in seal order, so we
   walk forward from the batch of the last surviving reservation (or the
   oldest live batch when none survived) and mark the next
   [group_commit - 1] key indices as spent. *)
let burn_gap st ~group_commit =
  let order = List.rev st.seal_order in
  let order =
    match st.last_reserved with
    | None -> order
    | Some from ->
        let rec drop = function
          | [] -> order (* last reserve's batch unknown: be conservative *)
          | id :: _ as l when Int64.equal id from -> l
          | _ :: tl -> drop tl
        in
        drop order
  in
  let budget = ref (group_commit - 1) in
  let burned = ref [] in
  List.iter
    (fun id ->
      if !budget > 0 then
        match Hashtbl.find_opt st.table id with
        | Some b when (not b.b_retired) && b.b_size > 0 ->
            let start = b.b_high_water + 1 in
            let avail = b.b_size - start in
            if avail > 0 then begin
              let n = min avail !budget in
              b.b_high_water <- start + n - 1;
              if b.b_high_water = b.b_size - 1 then b.b_retired <- true;
              burned := (id, start, n) :: !burned;
              budget := !budget - n
            end
        | _ -> ())
    order;
  List.rev !burned

(* {1 Recovery report} *)

type report = {
  had_snapshot : bool;
  segments_replayed : int;
  records_replayed : int;
  torn_segments : int;
  torn_bytes : int;
  clean : bool;
  burned : (int64 * int * int) list;
  resume : (int64 * int) list;
  next_batch_id : int64;
  epoch : int;
  rotation_rolled_back : (int * int64) option;
}

let first_safe_index report ~batch_id =
  List.assoc_opt batch_id report.resume

(* {1 The journal} *)

type tel = {
  c_recoveries : Metric.Counter.t;
  c_burned : Metric.Counter.t;
  c_torn : Metric.Counter.t;
  c_snapshots : Metric.Counter.t;
  c_rollbacks : Metric.Counter.t;
  g_segments : Metric.Gauge.t;
  bundle : Tel.t;
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

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let prune_segments dir ~upto =
  List.iter
    (fun seq ->
      if Int64.compare seq upto <= 0 then
        try Sys.remove (seg_path dir seq) with Sys_error _ -> ())
    (list_segments dir)

let save_snapshot t ~covered =
  Snapshot.save ~dir:t.cfg.dir
    {
      Snapshot.fingerprint = t.fingerprint;
      seq = covered;
      next_batch_id = t.st.next;
      batches = snapshot_batches t.st;
      epoch = t.st.epoch;
      pending_rotation = t.st.pending;
    };
  Metric.Counter.incr t.tel.c_snapshots

(* Rotate to a fresh segment: sync + close the active one, persist a
   snapshot covering it, start its successor, and prune what the
   snapshot covers. Called under the lock. *)
let checkpoint_locked t =
  Wal.close t.wal;
  let covered = t.seq in
  save_snapshot t ~covered;
  t.seq <- Int64.add covered 1L;
  t.wal <- Wal.rotate t.wal (seg_path t.cfg.dir t.seq);
  Wal.append t.wal (encode_record (Checkpoint covered));
  prune_segments t.cfg.dir ~upto:covered;
  Metric.Gauge.set t.tel.g_segments (float_of_int (List.length (list_segments t.cfg.dir)));
  t.seals_since_checkpoint <- 0

let open_ ?(telemetry = Tel.default) ?fingerprint cfg =
  let tel =
    {
      c_recoveries = Tel.counter telemetry "dsig_store_recoveries_total";
      c_burned = Tel.counter telemetry "dsig_store_burned_keys_total";
      c_torn = Tel.counter telemetry "dsig_store_torn_truncations_total";
      c_snapshots = Tel.counter telemetry "dsig_store_snapshots_total";
      c_rollbacks = Tel.counter telemetry "dsig_rotation_rollbacks_total";
      g_segments = Tel.gauge telemetry "dsig_store_wal_segments";
      bundle = telemetry;
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
        let fp = if fp_given <> "" then fp_given else fp_stored in
        let snap_seq = match snap with Some s -> s.Snapshot.seq | None -> 0L in
        let st = match snap with Some s -> state_of_snapshot s | None -> fresh_state () in
        let segments = list_segments cfg.dir in
        let to_replay = List.filter (fun s -> Int64.compare s snap_seq > 0) segments in
        let fresh_store = snap = None && segments = [] in
        let torn_segments = ref 0 and torn_bytes = ref 0 and records = ref 0 in
        let replay_error = ref None in
        List.iter
          (fun seq ->
            if !replay_error = None then
              match Wal.repair (seg_path cfg.dir seq) with
              | Error e -> replay_error := Some e
              | Ok r ->
                  (match r.Wal.torn with
                  | Some _ ->
                      incr torn_segments;
                      torn_bytes := !torn_bytes + (r.Wal.total_bytes - r.Wal.valid_bytes);
                      Metric.Counter.incr tel.c_torn
                  | None -> ());
                  List.iter
                    (fun payload ->
                      if !replay_error = None then
                        match decode_record payload with
                        | Error e ->
                            replay_error :=
                              Some (Printf.sprintf "%s: %s" (seg_name seq) e)
                        | Ok record ->
                            incr records;
                            apply st record)
                    r.Wal.records)
          to_replay;
        match !replay_error with
        | Some e -> Error (Printf.sprintf "keystate: %s" e)
        | None ->
            let clean = fresh_store || st.clean in
            let burned = if clean then [] else burn_gap st ~group_commit:cfg.group_commit in
            (* a proposed-but-unconfirmed rotation never survives the
               process: the staged batch's key material lived only in
               memory, so recovery rolls the journal back to exactly one
               live generation by retiring the staged batch *)
            let rotation_rolled_back =
              match st.pending with
              | None -> None
              | Some (e, bid) ->
                  (match Hashtbl.find_opt st.table bid with
                  | Some b -> b.b_retired <- true
                  | None -> ());
                  st.pending <- None;
                  Metric.Counter.incr tel.c_rollbacks;
                  Some (e, bid)
            in
            if not clean then
              (* seals can be lost along with reserves: leave a batch-id
                 gap wide enough to cover every possibly-lost seal *)
              st.next <- Int64.add st.next (Int64.of_int cfg.group_commit);
            let max_seg = List.fold_left max_i64 snap_seq segments in
            let t =
              {
                cfg;
                fingerprint = fp;
                st;
                wal = Wal.create ~telemetry ~group_commit:cfg.group_commit ~fsync:cfg.fsync
                        (seg_path cfg.dir (Int64.add max_seg 1L));
                seq = Int64.add max_seg 1L;
                seals_since_checkpoint = 0;
                closed = false;
                lock = Mutex.create ();
                tel;
              }
            in
            (* fold recovery (burn included) into a snapshot right away,
               so the burn survives even a crash-free shutdown and old
               segments never need a second replay *)
            save_snapshot t ~covered:max_seg;
            prune_segments cfg.dir ~upto:max_seg;
            Metric.Gauge.set tel.g_segments
              (float_of_int (List.length (list_segments cfg.dir)));
            if not fresh_store then Metric.Counter.incr tel.c_recoveries;
            let burned_total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 burned in
            if burned_total > 0 then Metric.Counter.incr ~by:burned_total tel.c_burned;
            let resume =
              List.map (fun (id, (b : batch_state)) -> (id, b.high_water + 1)) (live_batches st)
            in
            Ok
              ( t,
                {
                  had_snapshot = snap <> None;
                  segments_replayed = List.length to_replay;
                  records_replayed = !records;
                  torn_segments = !torn_segments;
                  torn_bytes = !torn_bytes;
                  clean;
                  burned;
                  resume;
                  next_batch_id = st.next;
                  epoch = st.epoch;
                  rotation_rolled_back;
                } ))

let check_open t what = if t.closed then invalid_arg ("Keystate." ^ what ^ ": store is closed")

let reserve t ~batch_id ~key_index =
  locked t (fun () ->
      check_open t "reserve";
      Wal.append t.wal (encode_record (Key_reserved { batch_id; key_index }));
      let b = find_or_add t.st batch_id in
      if key_index > b.b_high_water then b.b_high_water <- key_index;
      t.st.last_reserved <- Some batch_id;
      t.st.next <- max_i64 t.st.next (Int64.add batch_id 1L);
      if b.b_size > 0 && key_index = b.b_size - 1 && not b.b_retired then begin
        Wal.append t.wal (encode_record (Batch_retired batch_id));
        b.b_retired <- true
      end)

let seal t ~batch_id ~size =
  locked t (fun () ->
      check_open t "seal";
      Wal.append t.wal (encode_record (Batch_sealed { batch_id; size }));
      let b = find_or_add t.st batch_id in
      b.b_size <- size;
      t.st.next <- max_i64 t.st.next (Int64.add batch_id 1L);
      t.seals_since_checkpoint <- t.seals_since_checkpoint + 1;
      if t.cfg.checkpoint_every > 0 && t.seals_since_checkpoint >= t.cfg.checkpoint_every then
        checkpoint_locked t)

let retire t ~batch_id =
  locked t (fun () ->
      check_open t "retire";
      let b = find_or_add t.st batch_id in
      if not b.b_retired then begin
        Wal.append t.wal (encode_record (Batch_retired batch_id));
        b.b_retired <- true
      end)

(* {2 Rotation (key lifecycle plane)}

   The cutover protocol is propose -> confirm. [propose_rotation] is
   journaled before the staged batch's seal, so a crash between the two
   leaves nothing to roll back; a crash after the seal but before
   [confirm_rotation] recovers by retiring the staged batch (its key
   material died with the process) — either way exactly one generation
   stays live. [confirm_rotation] is a single atomic record whose
   replay retires every earlier batch. *)

let propose_rotation t ~epoch ~batch_id =
  locked t (fun () ->
      check_open t "propose_rotation";
      if t.st.pending <> None then
        invalid_arg "Keystate.propose_rotation: a rotation is already pending";
      if epoch <= t.st.epoch then invalid_arg "Keystate.propose_rotation: epoch must advance";
      Wal.append t.wal (encode_record (Rotation_proposed { epoch; batch_id }));
      t.st.pending <- Some (epoch, batch_id);
      t.st.next <- max_i64 t.st.next (Int64.add batch_id 1L))

let confirm_rotation t ~epoch ~batch_id =
  locked t (fun () ->
      check_open t "confirm_rotation";
      (match t.st.pending with
      | Some (e, b) when e = epoch && Int64.equal b batch_id -> ()
      | Some _ | None ->
          invalid_arg "Keystate.confirm_rotation: no matching proposed rotation");
      Wal.append t.wal (encode_record (Rotation_confirmed { epoch; batch_id }));
      (* make the cutover durable now: once confirmed, keys from the
         staged batch may leave the process immediately *)
      Wal.sync t.wal;
      Hashtbl.iter
        (fun id b -> if Int64.compare id batch_id < 0 then b.b_retired <- true)
        t.st.table;
      if epoch > t.st.epoch then t.st.epoch <- epoch;
      t.st.pending <- None)

let epoch t = locked t (fun () -> t.st.epoch)
let pending_rotation t = locked t (fun () -> t.st.pending)

let checkpoint t =
  locked t (fun () ->
      check_open t "checkpoint";
      checkpoint_locked t)

let sync t = locked t (fun () -> if not t.closed then Wal.sync t.wal)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        Wal.append t.wal (encode_record (Clean_shutdown t.st.next));
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
let batches t = locked t (fun () -> live_batches t.st)
let wal_path t = Wal.path t.wal
let synced_bytes t = Wal.synced_bytes t.wal

(* {1 Read-only scan} *)

type scan = {
  scan_snapshot : Snapshot.t option;
  scan_segments : (int64 * Wal.recovery) list;
  scan_state : (int64 * batch_state) list;
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
        let st = match snap with Some s -> state_of_snapshot s | None -> fresh_state () in
        let error = ref None in
        let rotations = ref [] in
        let segments =
          List.filter_map
            (fun seq ->
              if !error <> None then None
              else
                match Wal.load (seg_path dir seq) with
                | Error e ->
                    error := Some e;
                    None
                | Ok r ->
                    if Int64.compare seq snap_seq > 0 then
                      List.iter
                        (fun payload ->
                          if !error = None then
                            match decode_record payload with
                            | Error e -> error := Some (Printf.sprintf "%s: %s" (seg_name seq) e)
                            | Ok record ->
                                (match record with
                                | Rotation_confirmed { epoch; batch_id } ->
                                    rotations := (epoch, batch_id) :: !rotations
                                | _ -> ());
                                apply st record)
                        r.Wal.records;
                    Some (seq, r))
            (list_segments dir)
        in
        match !error with
        | Some e -> Error (Printf.sprintf "keystate: %s" e)
        | None ->
            let torn = List.exists (fun (_, r) -> r.Wal.torn <> None) segments in
            Ok
              {
                scan_snapshot = snap;
                scan_segments = segments;
                scan_state = live_batches st;
                scan_next_batch_id = st.next;
                scan_clean = st.clean;
                scan_torn = torn;
                scan_epoch = st.epoch;
                scan_pending_rotation = st.pending;
                scan_rotations = List.rev !rotations;
              })
