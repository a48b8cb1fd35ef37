(* The durability plane: WAL framing and torn-tail tolerance, snapshot
   atomicity, and the Keystate journal's key-reuse guarantee — one
   synced record per sealed batch, and a restart that resumes above
   every batch id ever sealed — including the crash-injection matrices:
   kill the journal (with or without a torn in-flight frame), restart,
   and assert that no sealed batch id is ever resumed at or below. *)

open Dsig
module Wal = Dsig_store.Wal
module Ksnapshot = Dsig_store.Snapshot
module Keystate = Dsig_store.Keystate

(* mkdtemp: claim a unique temp name, swap the file for a directory *)
let fresh_dir () =
  let f = Filename.temp_file "dsig-test-store" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let tel () = Dsig_telemetry.Telemetry.create ()

(* --- Wal --- *)

let test_wal_roundtrip () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal" in
  let payloads = [ "alpha"; ""; "gamma-longer"; String.make 300 'x'; "\x00\xff\x01" ] in
  let w = Wal.create ~telemetry:(tel ()) ~group_commit:3 ~fsync:false path in
  List.iter (Wal.append w) payloads;
  Alcotest.(check int) "appended" (List.length payloads) (Wal.appended w);
  Wal.close w;
  match Wal.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok r ->
      Alcotest.(check (list string)) "records" payloads r.Wal.records;
      Alcotest.(check (option string)) "not torn" None r.Wal.torn;
      Alcotest.(check int) "no tail" r.Wal.total_bytes r.Wal.valid_bytes

let test_wal_group_commit_accounting () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal" in
  let w = Wal.create ~telemetry:(tel ()) ~group_commit:4 ~fsync:false path in
  Wal.append w "one";
  Wal.append w "two";
  Wal.append w "three";
  (* 3 pending appends: the sync horizon still sits at the magic *)
  Alcotest.(check int) "horizon before group commit" 8 (Wal.synced_bytes w);
  Wal.append w "four";
  let size = (Unix.stat path).Unix.st_size in
  Alcotest.(check int) "group boundary syncs" size (Wal.synced_bytes w);
  Wal.append w "five";
  Wal.sync w;
  let size = (Unix.stat path).Unix.st_size in
  Alcotest.(check int) "explicit sync" size (Wal.synced_bytes w);
  Wal.close w

(* [dsig_store_appends_total] is a probe of [Wal.appended]: two logs on
   one registry snapshot to the sum of their counts, and a rotated log
   carries its count (and its one probe) into the next segment. *)
let test_wal_appends_probe () =
  with_dir @@ fun dir ->
  let t = tel () in
  let appends () =
    match
      Dsig_telemetry.Registry.Snapshot.find (Dsig_telemetry.Telemetry.snapshot t)
        "dsig_store_appends_total"
    with
    | Some (Dsig_telemetry.Registry.Snapshot.Counter n) -> n
    | _ -> Alcotest.fail "dsig_store_appends_total is not a counter"
  in
  let a = Wal.create ~telemetry:t ~fsync:false (Filename.concat dir "a") in
  let b = Wal.create ~telemetry:t ~fsync:false (Filename.concat dir "b") in
  List.iter (Wal.append a) [ "1"; "2"; "3" ];
  List.iter (Wal.append b) [ "4"; "5" ];
  Alcotest.(check int) "sum of two logs" (Wal.appended a + Wal.appended b) (appends ());
  let a = Wal.rotate a (Filename.concat dir "a2") in
  Wal.append a "6";
  Alcotest.(check int) "rotation keeps the count" 4 (Wal.appended a);
  Alcotest.(check int) "sum after rotation" (Wal.appended a + Wal.appended b) (appends ());
  Wal.close a;
  Wal.close b

let test_wal_cut_at_every_offset () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal" in
  let payloads = [ "alpha"; ""; "gamma-longer" ] in
  let w = Wal.create ~telemetry:(tel ()) ~fsync:false path in
  List.iter (Wal.append w) payloads;
  Wal.close w;
  let data = read_file path in
  let len = String.length data in
  (* frame boundaries: 8 (magic), then 8 + header + payload each *)
  let boundaries, _ =
    List.fold_left
      (fun (acc, off) p ->
        let off = off + 8 + String.length p in
        (off :: acc, off))
      ([ 8 ], 8)
      payloads
  in
  let cut_path = Filename.concat dir "cut" in
  for cut = 0 to len - 1 do
    write_file cut_path (String.sub data 0 cut);
    match Wal.load cut_path with
    | Error _ ->
        Alcotest.(check bool)
          (Printf.sprintf "cut %d: only a short magic errors" cut)
          true (cut < 8)
    | Ok r ->
        Alcotest.(check bool) (Printf.sprintf "cut %d: magic survived" cut) true (cut >= 8);
        let complete = List.length (List.filter (fun b -> b <= cut) boundaries) - 1 in
        Alcotest.(check int)
          (Printf.sprintf "cut %d: complete frames" cut)
          complete
          (List.length r.Wal.records);
        Alcotest.(check bool)
          (Printf.sprintf "cut %d: torn iff mid-frame" cut)
          (not (List.mem cut boundaries))
          (r.Wal.torn <> None)
  done

let test_wal_repair_truncates () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal" in
  let w = Wal.create ~telemetry:(tel ()) ~fsync:false path in
  Wal.append w "kept";
  Wal.append w "also kept";
  Wal.close w;
  let good = (Unix.stat path).Unix.st_size in
  (* torn tail: half a header *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x07\x00\x00";
  close_out oc;
  (match Wal.repair path with
  | Error e -> Alcotest.failf "repair: %s" e
  | Ok r ->
      Alcotest.(check int) "valid prefix" good r.Wal.valid_bytes;
      Alcotest.(check bool) "tail reported" true (r.Wal.torn <> None));
  Alcotest.(check int) "file truncated" good (Unix.stat path).Unix.st_size;
  match Wal.load path with
  | Error e -> Alcotest.failf "reload: %s" e
  | Ok r ->
      Alcotest.(check (option string)) "clean after repair" None r.Wal.torn;
      Alcotest.(check (list string)) "records kept" [ "kept"; "also kept" ] r.Wal.records

let wal_bit_flip_qcheck =
  let open QCheck in
  Test.make ~name:"wal load is total under single-byte corruption" ~count:120
    (pair (int_bound 10_000) (int_range 1 255))
    (fun (posseed, mask) ->
      with_dir @@ fun dir ->
      let path = Filename.concat dir "wal" in
      let payloads = List.init 6 (fun i -> Printf.sprintf "record-%d-%s" i (String.make i 'p')) in
      let w = Wal.create ~telemetry:(tel ()) ~fsync:false path in
      List.iter (Wal.append w) payloads;
      Wal.close w;
      let data = Bytes.of_string (read_file path) in
      let pos = posseed mod Bytes.length data in
      Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor mask));
      write_file path (Bytes.to_string data);
      match Wal.load path with
      | Error _ -> pos < 8 (* only magic corruption is a hard error *)
      | Ok r ->
          (* whatever survives is a strict prefix of what was written *)
          let rec is_prefix a b =
            match (a, b) with
            | [], _ -> true
            | x :: xs, y :: ys -> x = y && is_prefix xs ys
            | _ :: _, [] -> false
          in
          is_prefix r.Wal.records payloads)

(* --- Snapshot --- *)

let sample_snapshot =
  {
    Ksnapshot.fingerprint = "0011aabb";
    seq = 3L;
    next_batch_id = 7L;
    epoch = 2;
    pending_rotation = Some (3, 6L);
  }

let test_snapshot_roundtrip () =
  (match Ksnapshot.decode (Ksnapshot.encode sample_snapshot) with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok s -> Alcotest.(check bool) "roundtrip" true (s = sample_snapshot));
  with_dir @@ fun dir ->
  Alcotest.(check bool) "no snapshot yet" true (Ksnapshot.load ~dir = Ok None);
  Ksnapshot.save ~dir sample_snapshot;
  match Ksnapshot.load ~dir with
  | Ok (Some s) -> Alcotest.(check bool) "disk roundtrip" true (s = sample_snapshot)
  | Ok None -> Alcotest.fail "snapshot missing after save"
  | Error e -> Alcotest.failf "load: %s" e

let test_snapshot_corruption () =
  let encoded = Ksnapshot.encode sample_snapshot in
  (* flip one body byte: the CRC must catch it *)
  let b = Bytes.of_string encoded in
  Bytes.set b (Bytes.length b - 1) (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
  (match Ksnapshot.decode (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit flip decoded");
  (* every truncation is a total Error, never an exception *)
  for cut = 0 to String.length encoded - 1 do
    match Ksnapshot.decode (String.sub encoded 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d decoded" cut
  done

(* --- Keystate --- *)

let open_exn ?(fingerprint = "fp") cfg =
  match Keystate.open_ ~telemetry:(tel ()) ~fingerprint cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "open: %s" e

let test_keystate_clean_reopen () =
  with_dir @@ fun dir ->
  let cfg = Keystate.config ~fsync:false dir in
  let t, report = open_exn cfg in
  Alcotest.(check bool) "fresh store is clean" true report.Keystate.clean;
  List.iter (fun b -> Keystate.seal t ~batch_id:b) [ 0L; 1L; 2L ];
  Keystate.close t;
  let t, report = open_exn cfg in
  Alcotest.(check bool) "clean shutdown detected" true report.Keystate.clean;
  Alcotest.(check int64) "resumes past the newest seal" 3L report.Keystate.next_batch_id;
  Alcotest.(check int64) "handle agrees" 3L (Keystate.next_batch_id t);
  Keystate.close t

let test_keystate_fingerprint_mismatch () =
  with_dir @@ fun dir ->
  let cfg = Keystate.config ~fsync:false dir in
  Keystate.close (fst (open_exn ~fingerprint:"scheme-a" cfg));
  match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"scheme-b" cfg with
  | Error _ -> ()
  | Ok (t, _) ->
      Keystate.close t;
      Alcotest.fail "resumed a store under a different configuration"

let test_keystate_checkpoint_prunes () =
  with_dir @@ fun dir ->
  let t, _ = open_exn (Keystate.config ~fsync:false ~checkpoint_every:2 dir) in
  for b = 0 to 5 do
    Keystate.seal t ~batch_id:(Int64.of_int b)
  done;
  Keystate.close t;
  match Keystate.scan ~dir with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s ->
      Alcotest.(check bool) "snapshot written" true (s.Keystate.scan_snapshot <> None);
      Alcotest.(check bool) "checkpoints pruned old segments" true
        (List.length s.Keystate.scan_segments <= 2);
      Alcotest.(check bool) "clean" true s.Keystate.scan_clean;
      Alcotest.(check bool) "not torn" true (not s.Keystate.scan_torn);
      Alcotest.(check int64) "past all six seals" 6L s.Keystate.scan_next_batch_id

let test_keystate_scan_missing () =
  match Keystate.scan ~dir:"/nonexistent/dsig-store" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "scanned a missing store"

(* The snapshot holds the counter, the epoch and the fingerprint, not a
   row per batch ever sealed: it is as large after 1,000 seals as after
   one. *)
let test_snapshot_does_not_grow () =
  with_dir @@ fun dir ->
  let t, _ = open_exn (Keystate.config ~fsync:false ~checkpoint_every:0 dir) in
  let snapshot_size () =
    Keystate.checkpoint t;
    (Unix.stat (Filename.concat dir Ksnapshot.filename)).Unix.st_size
  in
  Keystate.seal t ~batch_id:0L;
  let after_one = snapshot_size () in
  for b = 1 to 999 do
    Keystate.seal t ~batch_id:(Int64.of_int b)
  done;
  Alcotest.(check int) "1 batch vs 1,000" after_one (snapshot_size ());
  Keystate.close t

(* Durability at the batch: every seal, propose and confirm is synced
   before it returns, across checkpoint rotations too. *)
let test_every_record_synced () =
  with_dir @@ fun dir ->
  let t, _ = open_exn (Keystate.config ~fsync:false ~checkpoint_every:3 dir) in
  let check what =
    Alcotest.(check int) what (Unix.stat (Keystate.wal_path t)).Unix.st_size (Keystate.synced_bytes t)
  in
  for b = 0 to 7 do
    Keystate.seal t ~batch_id:(Int64.of_int b);
    check (Printf.sprintf "seal %d" b)
  done;
  Keystate.propose_rotation t ~epoch:1 ~batch_id:8L;
  check "propose";
  Keystate.seal t ~batch_id:8L;
  check "staged seal";
  Keystate.confirm_rotation t ~epoch:1 ~batch_id:8L;
  check "confirm";
  Keystate.close t

(* A store of the per-key format is refused and left as it was: an old
   snapshot magic, or a journal record whose tag is gone. *)
let test_old_format_refused () =
  let listing dir =
    Array.to_list (Sys.readdir dir)
    |> List.sort compare
    |> List.map (fun f -> (f, read_file (Filename.concat dir f)))
  in
  let refused what dir =
    let before = listing dir in
    (match Keystate.open_ ~telemetry:(tel ()) (Keystate.config ~fsync:false dir) with
    | Error _ -> ()
    | Ok (t, _) ->
        Keystate.close t;
        Alcotest.failf "%s: opened" what);
    Alcotest.(check bool) (what ^ ": untouched") true (listing dir = before)
  in
  (with_dir @@ fun dir ->
   (* a DSIGSNP2 snapshot: seq, next id, empty fingerprint, no batches,
      epoch 0, no pending rotation *)
   let body =
     String.concat ""
       [ String.make 16 '\000'; "\000\000\000\000"; "\000\000\000\000"; "\000\000\000\000"; "\000" ]
   in
   write_file
     (Filename.concat dir Ksnapshot.filename)
     ("DSIGSNP2" ^ Dsig_util.Bytesutil.u32_le (Wal.crc32 body) ^ body);
   refused "old snapshot" dir);
  with_dir @@ fun dir ->
  (* a segment holding a per-key reservation record (tag 1), then a
     torn frame that a successful open would discard *)
  let path = Filename.concat dir "wal-0000000000000001" in
  let w = Wal.create ~telemetry:(tel ()) ~fsync:false path in
  Wal.append w ("\001" ^ String.make 12 '\000');
  Wal.close w;
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\007\000\000";
  close_out oc;
  refused "old record" dir

(* Kill a segment the way an OS crash can: the handle dropped, then a
   torn frame of a record whose sync never returned (or none). *)
let crash_with_torn_tail rng t =
  let path = Keystate.wal_path t in
  Keystate.crash t;
  if Random.State.bool rng then begin
    let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
    output_string oc (String.init (1 + Random.State.int rng 16) (fun _ -> Char.chr (Random.State.int rng 256)));
    close_out oc
  end

(* The crash-injection matrix. One run simulates a signer's life across
   four incarnations: each seals a few batches and dies, possibly
   mid-write. A key is named by (batch id, index), so no key is signed
   twice as long as recovery resumes above every batch id ever sealed. *)
let keystate_crash_qcheck =
  let open QCheck in
  Test.make ~name:"crash matrix: no key signed twice, every sealed id stays behind" ~count:30
    (triple (int_bound 10_000) (int_range 1 5) (int_bound 2))
    (fun (seed, seals, checkpoint_every) ->
      with_dir @@ fun dir ->
      let rng = Random.State.make [| seed; seals; checkpoint_every |] in
      let max_sealed = ref (-1L) in
      let ok = ref true in
      let fail fmt = Printf.ksprintf (fun m -> ok := false; print_endline ("crash matrix: " ^ m)) fmt in
      let cfg = Keystate.config ~fsync:true ~checkpoint_every dir in
      for _round = 1 to 4 do
        if !ok then
          match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"crash-fp" cfg with
          | Error e -> fail "open: %s" e
          | Ok (t, report) ->
              if report.Keystate.next_batch_id <= !max_sealed then
                fail "next_batch_id %Ld at or below sealed id %Ld" report.Keystate.next_batch_id
                  !max_sealed;
              for _ = 1 + Random.State.int rng seals downto 1 do
                let nb = Keystate.next_batch_id t in
                Keystate.seal t ~batch_id:nb;
                (* the batch's keys may sign from here on *)
                max_sealed := nb
              done;
              crash_with_torn_tail rng t
      done;
      (if !ok then
         match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"crash-fp" cfg with
         | Error e -> fail "final open: %s" e
         | Ok (t, report) ->
             if report.Keystate.next_batch_id <= !max_sealed then
               fail "final next_batch_id %Ld at or below %Ld" report.Keystate.next_batch_id
                 !max_sealed;
             Keystate.close t);
      !ok)

(* The rotation crash matrix: kill the journal while a rotation is in
   flight — after the propose, after the staged seal, or after the
   confirm. Recovery must land on exactly one epoch: the new one iff
   the confirm ran (it is synced), else the old one with the proposal
   rolled back; either way it resumes above the staged batch id. *)
let rotation_crash_qcheck =
  let open QCheck in
  Test.make ~name:"rotation crash: one live generation, no key reuse" ~count:40
    (pair (int_bound 10_000) (int_bound 2))
    (fun (seed, stage) ->
      with_dir @@ fun dir ->
      let rng = Random.State.make [| seed; stage |] in
      let ok = ref true in
      let fail fmt =
        Printf.ksprintf (fun m -> ok := false; print_endline ("rotation crash: " ^ m)) fmt
      in
      let cfg = Keystate.config ~fsync:true ~checkpoint_every:(Random.State.int rng 3) dir in
      let t, _ = open_exn ~fingerprint:"rot-fp" cfg in
      Keystate.seal t ~batch_id:(Keystate.next_batch_id t);
      let b1 = Keystate.next_batch_id t in
      Keystate.propose_rotation t ~epoch:1 ~batch_id:b1;
      if stage >= 1 then Keystate.seal t ~batch_id:b1;
      let confirmed = stage = 2 in
      if confirmed then Keystate.confirm_rotation t ~epoch:1 ~batch_id:b1;
      crash_with_torn_tail rng t;
      (match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"rot-fp" cfg with
      | Error e -> fail "reopen: %s" e
      | Ok (t, report) ->
          if Keystate.pending_rotation t <> None then fail "recovery left a rotation pending";
          if report.Keystate.next_batch_id <= b1 then
            fail "resumes at %Ld, not above staged %Ld" report.Keystate.next_batch_id b1;
          (match (confirmed, report.Keystate.epoch, report.Keystate.rotation_rolled_back) with
          | true, 1, None -> ()
          | false, 0, Some (1, id) when Int64.equal id b1 -> ()
          | _, e, rb ->
              fail "stage %d: epoch %d, rollback %s" stage e
                (match rb with Some (e, b) -> Printf.sprintf "(%d, %Ld)" e b | None -> "none"));
          Keystate.close t);
      !ok)

(* --- record codec totality --- *)

let record_roundtrip_qcheck =
  let open QCheck in
  let record =
    oneof
      [
        map (fun b -> Keystate.Batch_sealed (Int64.of_int b)) (int_bound 1_000_000);
        map (fun s -> Keystate.Checkpoint (Int64.of_int s)) (int_bound 1_000_000);
        map (fun n -> Keystate.Clean_shutdown (Int64.of_int n)) (int_bound 1_000_000);
        map
          (fun (e, b) -> Keystate.Rotation_proposed { epoch = e; batch_id = Int64.of_int b })
          (pair (int_bound 100_000) (int_bound 1_000_000));
        map
          (fun (e, b) -> Keystate.Rotation_confirmed { epoch = e; batch_id = Int64.of_int b })
          (pair (int_bound 100_000) (int_bound 1_000_000));
      ]
  in
  Test.make ~name:"keystate record codec roundtrips" ~count:200 record (fun r ->
      Keystate.decode_record (Keystate.encode_record r) = Ok r)

let record_decode_total_qcheck =
  let open QCheck in
  Test.make ~name:"keystate record decode is total" ~count:300 (string_of_size Gen.(0 -- 40))
    (fun s ->
      match Keystate.decode_record s with Ok _ -> true | Error _ -> true)

(* --- signer / runtime integration --- *)

let store_cfg = Config.make ~batch_size:4 ~queue_threshold:8 (Config.wots ~d:4)

let make_signer ?(telemetry = tel ()) ~dir ~rng_seed () =
  (* the identity key survives restarts; only the per-incarnation batch
     randomness differs *)
  let sk, pk = Dsig_ed25519.Eddsa.generate (Dsig_util.Rng.create 77L) in
  let rng = Dsig_util.Rng.create rng_seed in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let options =
    Options.default
    |> Options.with_telemetry telemetry
    |> Options.with_store (Options.store ~fsync:false dir)
  in
  let signer = Signer.create store_cfg ~id:0 ~eddsa:sk ~rng ~options ~verifiers:[ 1 ] () in
  let verifier = Verifier.create store_cfg ~id:1 ~pki () in
  (signer, verifier)

let batch_of_sig s =
  match Wire.peek_header s with Some (_, b) -> b | None -> Alcotest.fail "unparsable signature"

let test_signer_restart_no_reuse () =
  with_dir @@ fun dir ->
  (* first incarnation: sign, remember which batches its keys came from *)
  let msg1, sig1, first_ids =
    let signer, verifier = make_signer ~dir ~rng_seed:21L () in
    let s1 = Signer.sign signer "before restart" in
    let more = List.map (Signer.sign signer) [ "consume-1"; "consume-2" ] in
    Alcotest.(check bool) "verifies before restart" true
      (Verifier.verify verifier ~msg:"before restart" s1);
    Signer.close signer;
    ("before restart", s1, List.map batch_of_sig (s1 :: more))
  in
  (* second incarnation on the same store *)
  let signer, verifier = make_signer ~dir ~rng_seed:22L () in
  let report = Option.get (Signer.store_recovery signer) in
  Alcotest.(check bool) "clean restart" true report.Keystate.clean;
  let s2 = Signer.sign signer "after restart" in
  Alcotest.(check bool) "verifies after restart" true
    (Verifier.verify verifier ~msg:"after restart" s2);
  Alcotest.(check bool) "old signature still verifies" true
    (Verifier.verify verifier ~msg:msg1 sig1);
  Alcotest.(check bool) "restart signs only from fresh batch ids" true
    (List.for_all (fun b -> batch_of_sig s2 > b) first_ids);
  Signer.close signer

(* The first incarnation signs, then crashes: the journal is dropped and
   cut at its synced horizon. Every batch the second incarnation signs
   from lies above every batch the first one signed from. *)
let test_signer_crash_fresh_ids () =
  with_dir @@ fun dir ->
  let first =
    let signer, _ = make_signer ~dir ~rng_seed:51L () in
    Signer.background_fill signer;
    let sigs = List.init 13 (fun i -> Signer.sign signer (Printf.sprintf "first-%d" i)) in
    let ks = Option.get (Signer.store signer) in
    let path = Keystate.wal_path ks and horizon = Keystate.synced_bytes ks in
    Keystate.crash ks;
    Unix.truncate path horizon;
    List.map batch_of_sig sigs
  in
  let signer, verifier = make_signer ~dir ~rng_seed:51L () in
  Alcotest.(check bool) "recovery saw the crash" false
    (Option.get (Signer.store_recovery signer)).Keystate.clean;
  let second = List.init 13 (fun i -> Signer.sign signer (Printf.sprintf "second-%d" i)) in
  Alcotest.(check bool) "second incarnation verifies" true
    (Verifier.verify verifier ~msg:"second-0" (List.hd second));
  let max_first = List.fold_left max Int64.min_int first in
  List.iter
    (fun b ->
      if b <= max_first then
        Alcotest.failf "second incarnation signed from batch %Ld <= %Ld" b max_first)
    (List.map batch_of_sig second);
  Signer.close signer

(* The foreground sign writes no journal: with a filled queue, signing
   fewer keys than it holds appends nothing to the WAL. *)
let test_foreground_writes_nothing () =
  with_dir @@ fun dir ->
  let telemetry = tel () in
  let appends () =
    match
      Dsig_telemetry.Registry.Snapshot.find (Dsig_telemetry.Telemetry.snapshot telemetry)
        "dsig_store_appends_total"
    with
    | Some (Dsig_telemetry.Registry.Snapshot.Counter n) -> n
    | _ -> Alcotest.fail "dsig_store_appends_total is not a counter"
  in
  let signer, _ = make_signer ~telemetry ~dir ~rng_seed:61L () in
  Signer.background_fill signer;
  let depth = Signer.queue_depth signer in
  let before = appends () in
  Alcotest.(check bool) "sealing journaled" true (before > 0);
  for i = 1 to depth - 1 do
    ignore (Signer.sign signer (string_of_int i))
  done;
  Alcotest.(check int) "no refill ran" 1 (Signer.queue_depth signer);
  Alcotest.(check int) "signs appended nothing" before (appends ());
  Signer.close signer

let test_runtime_restart () =
  with_dir @@ fun dir ->
  let options () =
    Options.default
    |> Options.with_telemetry (tel ())
    |> Options.with_store (Options.store ~fsync:false dir)
  in
  let rng = Dsig_util.Rng.create 31L in
  let sk, _ = Dsig_ed25519.Eddsa.generate rng in
  let rt = Runtime.create store_cfg ~id:0 ~eddsa:sk ~seed:5L ~options:(options ()) () in
  ignore (Runtime.sign rt "runtime-before");
  let mark = Keystate.next_batch_id (Option.get (Runtime.store rt)) in
  Runtime.shutdown rt;
  let rt = Runtime.create store_cfg ~id:0 ~eddsa:sk ~seed:6L ~options:(options ()) () in
  let report = Option.get (Runtime.store_recovery rt) in
  Alcotest.(check bool) "runtime clean restart" true report.Keystate.clean;
  Alcotest.(check bool) "batch counter resumed past the mark" true
    (report.Keystate.next_batch_id >= mark);
  ignore (Runtime.sign rt "runtime-after");
  Runtime.shutdown rt

(* A deployment over one store gives each node a journal of its own
   ([<dir>/node-<id>]); a second deployment over it resumes each node
   cleanly past the batch ids that node sealed. *)
let test_deploy_store_per_node () =
  with_dir @@ fun dir ->
  let module Deploy = Dsig_deploy.Deploy in
  let options = Options.default |> Options.with_store (Options.store ~fsync:false dir) in
  let deploy () =
    let d = Deploy.create (Dsig_simnet.Sim.create ()) store_cfg ~n:3 ~options () in
    let sigs =
      Array.init 3 (fun id -> Deploy.sign d ~signer:id (Printf.sprintf "node %d" id))
    in
    (d, sigs)
  in
  let d, first = deploy () in
  let sealed =
    Array.init 3 (fun id ->
        Keystate.next_batch_id (Option.get (Signer.store (Deploy.signer d id))))
  in
  Deploy.close d;
  Alcotest.(check (list string)) "one subdirectory per node"
    [ "node-0"; "node-1"; "node-2" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  let d, second = deploy () in
  for id = 0 to 2 do
    let report = Option.get (Signer.store_recovery (Deploy.signer d id)) in
    Alcotest.(check bool) (Printf.sprintf "node %d clean" id) true report.Keystate.clean;
    Alcotest.(check int64) (Printf.sprintf "node %d resumes past its seals" id) sealed.(id)
      report.Keystate.next_batch_id;
    Alcotest.(check bool) (Printf.sprintf "node %d signs from a fresh batch" id) true
      (batch_of_sig second.(id) > batch_of_sig first.(id))
  done;
  Deploy.close d

(* --- Options (satellite 4) --- *)

let test_options_order_independence () =
  let st = Options.store ~fsync:false "/tmp/x" in
  let tel = Dsig_telemetry.Telemetry.create () in
  let a = Options.default |> Options.with_store st |> Options.with_telemetry tel in
  let b = Options.default |> Options.with_telemetry tel |> Options.with_store st in
  Alcotest.(check bool) "store" true (a.Options.store = b.Options.store);
  Alcotest.(check bool) "telemetry" true (a.Options.telemetry == b.Options.telemetry);
  Alcotest.(check bool) "store recorded" true (a.Options.store = Some st);
  (* smart-constructor validation *)
  Alcotest.check_raises "bad checkpoint cadence"
    (Invalid_argument "Options.store: checkpoint_every must be >= 0") (fun () ->
      ignore (Options.store ~checkpoint_every:(-1) "/tmp/x"))

let test_control_plane_conformance () =
  with_dir @@ fun dir ->
  (* a store-backed signer still satisfies the Control_plane surface *)
  let signer, _verifier = make_signer ~dir ~rng_seed:41L () in
  ignore (Signer.sign signer "cp");
  ignore (Signer.drain_outbox signer);
  let cp = Control_plane.of_signer signer in
  (match Control_plane.deliver_request cp { Batch.req_verifier = 1; req_signer = 0; req_batch = 0L } with
  | Some _ -> ()
  | None -> Alcotest.fail "retained batch not served");
  Alcotest.(check bool) "unknown batch not served" true
    (Control_plane.deliver_request cp
       { Batch.req_verifier = 1; req_signer = 0; req_batch = 999L }
    = None);
  (* ack every sealed batch: nothing is ever due again *)
  let sealed = Int64.to_int (Keystate.next_batch_id (Option.get (Signer.store signer))) in
  for id = 0 to sealed - 1 do
    Control_plane.deliver_ack cp
      { Batch.ack_verifier = 1; ack_signer = 0; ack_batch = Int64.of_int id }
  done;
  Alcotest.(check int) "acked plane has nothing due" 0
    (List.length (Control_plane.step cp ~now:1.0e12));
  Signer.close signer

(* --- Logfile truncation regressions (satellite 2) --- *)

let test_logfile_truncation_offsets () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "audit.log" in
  let w = Dsig_audit.Logfile.open_writer path in
  Dsig_audit.Logfile.append w ~client:1 ~op:"operation" ~signature:"sigbytes";
  Dsig_audit.Logfile.close_writer w;
  let data = read_file path in
  let cut_load n =
    let p = Filename.concat dir "cut.log" in
    write_file p (String.sub data 0 n);
    Dsig_audit.Logfile.load p
  in
  (* record starts at byte 8: 12-byte header, 9-byte op, 4-byte sig
     length, 8-byte signature *)
  Alcotest.(check bool) "mid-header cut" true
    (cut_load 13 = Error "truncated header at byte 8");
  Alcotest.(check bool) "mid-payload (op) cut" true
    (cut_load 23 = Error "truncated op at byte 8");
  Alcotest.(check bool) "mid-signature cut" true
    (cut_load 36 = Error "truncated signature at byte 8");
  match cut_load (String.length data) with
  | Ok log -> Alcotest.(check int) "full file loads" 1 (List.length (Dsig_audit.Audit.entries log))
  | Error e -> Alcotest.failf "full file: %s" e

let suites =
  [
    ( "store-wal",
      [
        Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
        Alcotest.test_case "group-commit accounting" `Quick test_wal_group_commit_accounting;
        Alcotest.test_case "appends probe" `Quick test_wal_appends_probe;
        Alcotest.test_case "cut at every offset" `Quick test_wal_cut_at_every_offset;
        Alcotest.test_case "repair truncates torn tail" `Quick test_wal_repair_truncates;
        QCheck_alcotest.to_alcotest ~long:false wal_bit_flip_qcheck;
      ] );
    ( "store-snapshot",
      [
        Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "corruption detected" `Quick test_snapshot_corruption;
      ] );
    ( "store-keystate",
      [
        Alcotest.test_case "clean reopen resumes past seals" `Quick test_keystate_clean_reopen;
        Alcotest.test_case "fingerprint mismatch refused" `Quick test_keystate_fingerprint_mismatch;
        Alcotest.test_case "checkpoints prune segments" `Quick test_keystate_checkpoint_prunes;
        Alcotest.test_case "scan of missing store errors" `Quick test_keystate_scan_missing;
        Alcotest.test_case "snapshot does not grow" `Quick test_snapshot_does_not_grow;
        Alcotest.test_case "every record is synced" `Quick test_every_record_synced;
        Alcotest.test_case "old-format store refused" `Quick test_old_format_refused;
        QCheck_alcotest.to_alcotest ~long:false record_roundtrip_qcheck;
        QCheck_alcotest.to_alcotest ~long:false record_decode_total_qcheck;
        QCheck_alcotest.to_alcotest ~long:false keystate_crash_qcheck;
        QCheck_alcotest.to_alcotest ~long:false rotation_crash_qcheck;
      ] );
    ( "store-integration",
      [
        Alcotest.test_case "signer restart never reuses keys" `Quick test_signer_restart_no_reuse;
        Alcotest.test_case "signer crash signs from fresh batch ids" `Quick
          test_signer_crash_fresh_ids;
        Alcotest.test_case "foreground sign writes no journal" `Quick
          test_foreground_writes_nothing;
        Alcotest.test_case "runtime restart resumes batch counter" `Quick test_runtime_restart;
        Alcotest.test_case "deploy store: one journal per node" `Quick test_deploy_store_per_node;
        Alcotest.test_case "options with_* are order independent" `Quick
          test_options_order_independence;
        Alcotest.test_case "store-backed signer keeps the control plane" `Quick
          test_control_plane_conformance;
        Alcotest.test_case "logfile truncation offsets" `Quick test_logfile_truncation_offsets;
      ] );
  ]
