(* The durability plane (ISSUE 5): WAL framing and torn-tail tolerance,
   snapshot atomicity, and the Keystate journal's key-reuse guarantee —
   including the crash-injection matrix: kill the journal at arbitrary
   byte offsets past the fsync horizon, restart, and assert that no
   one-time key index is ever signed twice and that recovery burns at
   most [group_commit] keys per crash. *)

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

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

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
    batches =
      [
        { Ksnapshot.id = 2L; size = 8; high_water = 4; retired = false };
        { Ksnapshot.id = 5L; size = 4; high_water = -1; retired = false };
        { Ksnapshot.id = 1L; size = 8; high_water = 7; retired = true };
      ];
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

let test_keystate_clean_reopen () =
  with_dir @@ fun dir ->
  let cfg = Keystate.config ~group_commit:4 ~fsync:false dir in
  (match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"fp-1" cfg with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok (t, report) ->
      Alcotest.(check bool) "fresh store is clean" true report.Keystate.clean;
      Keystate.seal t ~batch_id:0L ~size:8;
      Keystate.reserve t ~batch_id:0L ~key_index:0;
      Keystate.reserve t ~batch_id:0L ~key_index:1;
      Keystate.reserve t ~batch_id:0L ~key_index:2;
      Keystate.close t);
  match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"fp-1" cfg with
  | Error e -> Alcotest.failf "reopen: %s" e
  | Ok (t, report) ->
      Alcotest.(check bool) "clean shutdown detected" true report.Keystate.clean;
      Alcotest.(check bool) "nothing burned" true (report.Keystate.burned = []);
      Alcotest.(check (option int)) "resume after high water" (Some 3)
        (Keystate.first_safe_index report ~batch_id:0L);
      Alcotest.(check bool) "batch ids move on" true (Keystate.next_batch_id t >= 1L);
      Keystate.close t

let test_keystate_fingerprint_mismatch () =
  with_dir @@ fun dir ->
  let cfg = Keystate.config ~fsync:false dir in
  (match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"scheme-a" cfg with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok (t, _) -> Keystate.close t);
  match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"scheme-b" cfg with
  | Error _ -> ()
  | Ok (t, _) ->
      Keystate.close t;
      Alcotest.fail "resumed a store under a different configuration"

let test_keystate_checkpoint_prunes () =
  with_dir @@ fun dir ->
  let cfg = Keystate.config ~group_commit:2 ~fsync:false ~checkpoint_every:2 dir in
  (match Keystate.open_ ~telemetry:(tel ()) cfg with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok (t, _) ->
      for b = 0 to 5 do
        Keystate.seal t ~batch_id:(Int64.of_int b) ~size:4;
        Keystate.reserve t ~batch_id:(Int64.of_int b) ~key_index:0
      done;
      Keystate.close t);
  match Keystate.scan ~dir with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s ->
      Alcotest.(check bool) "snapshot written" true (s.Keystate.scan_snapshot <> None);
      Alcotest.(check bool) "checkpoints pruned old segments" true
        (List.length s.Keystate.scan_segments <= 2);
      Alcotest.(check bool) "clean" true s.Keystate.scan_clean;
      Alcotest.(check bool) "not torn" true (not s.Keystate.scan_torn);
      Alcotest.(check int) "all six batches live" 6 (List.length s.Keystate.scan_state)

let test_keystate_scan_missing () =
  match Keystate.scan ~dir:"/nonexistent/dsig-store" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "scanned a missing store"

(* The crash-injection matrix. One run simulates a signer's life across
   [rounds] incarnations: each incarnation seals a batch, reserves (and
   "signs") keys in consumption order, then dies — the journal file is
   cut at an arbitrary byte offset past the fsync horizon, which is
   exactly the set of states an OS crash can leave (torn final frame
   included). Recovery must (a) never hand back a key index that was
   already signed and (b) burn at most [group_commit] keys per crash. *)
let keystate_crash_qcheck =
  let open QCheck in
  Test.make ~name:"crash matrix: no key signed twice, burn bounded" ~count:30
    (quad (int_bound 10_000) (int_range 1 5) (int_range 4 9) (int_bound 2))
    (fun (seed, group_commit, batch_size, checkpoint_every) ->
      with_dir @@ fun dir ->
      let rng = Random.State.make [| seed; group_commit; batch_size |] in
      let signed = Hashtbl.create 64 in
      let max_sealed = ref (-1L) in
      let ok = ref true in
      let fail fmt = Printf.ksprintf (fun m -> ok := false; print_endline ("crash matrix: " ^ m)) fmt in
      let cfg = Keystate.config ~group_commit ~fsync:true ~checkpoint_every dir in
      for _round = 1 to 4 do
        if !ok then
          match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"crash-fp" cfg with
          | Error e -> fail "open: %s" e
          | Ok (t, report) ->
              let burned =
                List.fold_left (fun a (_, _, n) -> a + n) 0 report.Keystate.burned
              in
              if burned > group_commit then
                fail "burned %d > group_commit %d" burned group_commit;
              (* resume points must clear every signed index *)
              List.iter
                (fun (bid, first) ->
                  Hashtbl.iter
                    (fun (b, i) () ->
                      if b = bid && i >= first then
                        fail "batch %Ld resumes at %d but index %d was signed" bid first i)
                    signed)
                report.Keystate.resume;
              if report.Keystate.next_batch_id <= !max_sealed then
                fail "next_batch_id %Ld reuses sealed id %Ld" report.Keystate.next_batch_id
                  !max_sealed;
              (* live one incarnation *)
              let nb = Keystate.next_batch_id t in
              Keystate.seal t ~batch_id:nb ~size:batch_size;
              if nb > !max_sealed then max_sealed := nb;
              let nops = 1 + Random.State.int rng ((2 * group_commit) + 4) in
              for _ = 1 to nops do
                (* consume strictly in seal order — the signer's key queue
                   is FIFO, and burn-the-gap recovery is only promised for
                   consumption-ordered reservations *)
                let live =
                  List.filter
                    (fun (_, b) ->
                      (not b.Keystate.retired) && b.Keystate.high_water + 1 < b.Keystate.size)
                    (Keystate.batches t)
                in
                match List.sort (fun (a, _) (b, _) -> Int64.compare a b) live with
                | [] -> ()
                | (bid, st) :: _ ->
                    let idx = st.Keystate.high_water + 1 in
                    Keystate.reserve t ~batch_id:bid ~key_index:idx;
                    (* the signature leaves the process here *)
                    if Hashtbl.mem signed (bid, idx) then
                      fail "key (%Ld, %d) signed twice" bid idx;
                    Hashtbl.replace signed (bid, idx) ()
              done;
              (* SIGKILL + OS crash: drop the handle, then lose an
                 arbitrary suffix of the unfsynced bytes *)
              let path = Keystate.wal_path t in
              let horizon = Keystate.synced_bytes t in
              Keystate.crash t;
              let size = (Unix.stat path).Unix.st_size in
              let cut = horizon + Random.State.int rng (size - horizon + 1) in
              Unix.truncate path cut
      done;
      (* a final recovery must still open and report sane resume points *)
      (if !ok then
         match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"crash-fp" cfg with
         | Error e -> fail "final open: %s" e
         | Ok (t, report) ->
             List.iter
               (fun (bid, first) ->
                 Hashtbl.iter
                   (fun (b, i) () ->
                     if b = bid && i >= first then
                       fail "final resume %Ld@%d below signed %d" bid first i)
                   signed)
               report.Keystate.resume;
             Keystate.close t);
      !ok)

(* The rotation crash matrix (ISSUE 9): kill the journal at an arbitrary
   offset past the fsync horizon while a rotation is in flight. A crash
   between [propose_rotation] and [confirm_rotation] must recover by
   retiring the staged batch (its key material died with the process),
   leaving the old generation as the single live one; a crash after the
   confirm — which syncs — must land on the new generation with every
   older batch retired. In both cases no spent one-time key index is
   ever handed back. *)
let rotation_crash_qcheck =
  let open QCheck in
  Test.make ~name:"rotation crash: one live generation, no key reuse" ~count:40
    (triple (int_bound 10_000) (int_range 1 4) bool)
    (fun (seed, group_commit, confirm) ->
      with_dir @@ fun dir ->
      let rng = Random.State.make [| seed; group_commit; Bool.to_int confirm |] in
      let ok = ref true in
      let fail fmt =
        Printf.ksprintf (fun m -> ok := false; print_endline ("rotation crash: " ^ m)) fmt
      in
      let cfg = Keystate.config ~group_commit ~fsync:true dir in
      let spent = ref [] in
      let staged_id = ref 0L in
      (match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"rot-fp" cfg with
      | Error e -> fail "open: %s" e
      | Ok (t, _) ->
          (* the epoch-0 generation signs a little *)
          let b0 = Keystate.next_batch_id t in
          Keystate.seal t ~batch_id:b0 ~size:6;
          for i = 0 to Random.State.int rng 3 - 1 do
            Keystate.reserve t ~batch_id:b0 ~key_index:i;
            spent := (b0, i) :: !spent
          done;
          (* stage the next generation: propose before the staged seal *)
          let b1 = Keystate.next_batch_id t in
          staged_id := b1;
          Keystate.propose_rotation t ~epoch:1 ~batch_id:b1;
          Keystate.seal t ~batch_id:b1 ~size:6;
          if confirm then begin
            Keystate.confirm_rotation t ~epoch:1 ~batch_id:b1;
            (* post-cutover signatures leave the process immediately *)
            for i = 0 to Random.State.int rng 3 do
              Keystate.reserve t ~batch_id:b1 ~key_index:i;
              spent := (b1, i) :: !spent
            done
          end;
          (* SIGKILL + OS crash, losing an arbitrary unfsynced suffix *)
          let path = Keystate.wal_path t in
          let horizon = Keystate.synced_bytes t in
          Keystate.crash t;
          let size = (Unix.stat path).Unix.st_size in
          Unix.truncate path (horizon + Random.State.int rng (size - horizon + 1)));
      (if !ok then
         match Keystate.open_ ~telemetry:(tel ()) ~fingerprint:"rot-fp" cfg with
         | Error e -> fail "reopen: %s" e
         | Ok (t, report) ->
             let b1 = !staged_id in
             if Keystate.pending_rotation t <> None then
               fail "recovery left a rotation pending";
             let live =
               List.filter (fun (_, b) -> not b.Keystate.retired) (Keystate.batches t)
             in
             let old_live = List.exists (fun (id, _) -> id < b1) live in
             let new_live = List.exists (fun (id, _) -> id >= b1) live in
             if old_live && new_live then fail "two generations live after recovery";
             (match report.Keystate.epoch with
             | 1 ->
                 if not confirm then fail "epoch advanced without a confirm";
                 if old_live then fail "old generation live after confirmed cutover"
             | 0 ->
                 (* confirm_rotation syncs, so a confirm that ran is durable *)
                 if confirm then fail "synced confirm was lost";
                 if new_live then fail "staged batch live without a confirm";
                 (match report.Keystate.rotation_rolled_back with
                 | Some (1, id) when Int64.equal id b1 -> ()
                 | Some (e, id) -> fail "rolled back the wrong rotation (%d, %Ld)" e id
                 | None ->
                     (* the propose itself was truncated away — then the
                        staged seal (journaled after it) is gone too *)
                     if List.mem_assoc b1 (Keystate.batches t) then
                       fail "staged batch survived without a rollback report")
             | e -> fail "unexpected epoch %d" e);
             (* recovery must never hand back a key that left the process *)
             List.iter
               (fun (bid, first) ->
                 List.iter
                   (fun (b, i) ->
                     if Int64.equal b bid && i >= first then
                       fail "batch %Ld resumes at %d but index %d was signed" bid first i)
                   !spent)
               report.Keystate.resume;
             Keystate.close t);
      !ok)

(* --- record codec totality --- *)

let record_roundtrip_qcheck =
  let open QCheck in
  let record =
    oneof
      [
        map
          (fun (b, k) ->
            Keystate.Key_reserved { batch_id = Int64.of_int b; key_index = k })
          (pair (int_bound 1_000_000) (int_bound 100_000));
        map
          (fun (b, s) -> Keystate.Batch_sealed { batch_id = Int64.of_int b; size = s + 1 })
          (pair (int_bound 1_000_000) (int_bound 100_000));
        map (fun b -> Keystate.Batch_retired (Int64.of_int b)) (int_bound 1_000_000);
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

let make_signer ~dir ~rng_seed =
  (* the identity key survives restarts; only the per-incarnation batch
     randomness differs *)
  let sk, pk = Dsig_ed25519.Eddsa.generate (Dsig_util.Rng.create 77L) in
  let rng = Dsig_util.Rng.create rng_seed in
  let pki = Pki.create () in
  Pki.bind pki ~id:0 ~epoch:0 pk;
  let options =
    Options.default
    |> Options.with_telemetry (tel ())
    |> Options.with_store (Options.store ~group_commit:2 ~fsync:false dir)
  in
  let signer = Signer.create store_cfg ~id:0 ~eddsa:sk ~rng ~options ~verifiers:[ 1 ] () in
  let verifier = Verifier.create store_cfg ~id:1 ~pki () in
  (signer, verifier)

let test_signer_restart_no_reuse () =
  with_dir @@ fun dir ->
  (* first incarnation: sign, remember which keys were spent *)
  let high_mark, msg1, sig1 =
    let signer, verifier = make_signer ~dir ~rng_seed:21L in
    let s1 = Signer.sign signer "before restart" in
    ignore (Signer.sign signer "consume-1");
    ignore (Signer.sign signer "consume-2");
    Alcotest.(check bool) "verifies before restart" true
      (Verifier.verify verifier ~msg:"before restart" s1);
    let ks = Option.get (Signer.store signer) in
    let mark = Keystate.next_batch_id ks in
    Signer.close signer;
    (mark, "before restart", s1)
  in
  (* second incarnation on the same store *)
  let signer, verifier = make_signer ~dir ~rng_seed:22L in
  let report = Option.get (Signer.store_recovery signer) in
  Alcotest.(check bool) "clean restart" true report.Keystate.clean;
  let s2 = Signer.sign signer "after restart" in
  Alcotest.(check bool) "verifies after restart" true
    (Verifier.verify verifier ~msg:"after restart" s2);
  Alcotest.(check bool) "old signature still verifies" true
    (Verifier.verify verifier ~msg:msg1 sig1);
  (* every key the restarted signer spends lives in a batch id the first
     incarnation can never have touched *)
  let ks = Option.get (Signer.store signer) in
  let fresh_spent =
    List.filter (fun (_, st) -> st.Keystate.high_water >= 0) (Keystate.batches ks)
    |> List.filter (fun (id, _) -> id >= high_mark)
  in
  Alcotest.(check bool) "restart spends only fresh batch ids" true (fresh_spent <> []);
  Signer.close signer

let test_runtime_restart () =
  with_dir @@ fun dir ->
  let options seed =
    ignore seed;
    Options.default
    |> Options.with_telemetry (tel ())
    |> Options.with_store (Options.store ~group_commit:4 ~fsync:false dir)
  in
  let rng = Dsig_util.Rng.create 31L in
  let sk, _ = Dsig_ed25519.Eddsa.generate rng in
  let rt = Runtime.create store_cfg ~id:0 ~eddsa:sk ~seed:5L ~options:(options 1) () in
  ignore (Runtime.sign rt "runtime-before");
  let mark = Keystate.next_batch_id (Option.get (Runtime.store rt)) in
  Runtime.shutdown rt;
  let rt = Runtime.create store_cfg ~id:0 ~eddsa:sk ~seed:6L ~options:(options 2) () in
  let report = Option.get (Runtime.store_recovery rt) in
  Alcotest.(check bool) "runtime clean restart" true report.Keystate.clean;
  Alcotest.(check bool) "batch counter resumed past the mark" true
    (report.Keystate.next_batch_id >= mark);
  ignore (Runtime.sign rt "runtime-after");
  Runtime.shutdown rt

(* --- Options (satellite 4) --- *)

let test_options_order_independence () =
  let st = Options.store ~group_commit:2 ~fsync:false "/tmp/x" in
  let tel = Dsig_telemetry.Telemetry.create () in
  let a = Options.default |> Options.with_store st |> Options.with_telemetry tel in
  let b = Options.default |> Options.with_telemetry tel |> Options.with_store st in
  Alcotest.(check bool) "store" true (a.Options.store = b.Options.store);
  Alcotest.(check bool) "telemetry" true (a.Options.telemetry == b.Options.telemetry);
  Alcotest.(check bool) "store recorded" true (a.Options.store = Some st);
  (* smart-constructor validation *)
  Alcotest.check_raises "bad group commit"
    (Invalid_argument "Options.store: group_commit must be positive") (fun () ->
      ignore (Options.store ~group_commit:0 "/tmp/x"))

let test_control_plane_conformance () =
  with_dir @@ fun dir ->
  (* a store-backed signer still satisfies the Control_plane surface *)
  let signer, _verifier = make_signer ~dir ~rng_seed:41L in
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
  (* ack every outstanding batch: nothing is ever due again *)
  List.iter
    (fun (id, _) ->
      Control_plane.deliver_ack cp { Batch.ack_verifier = 1; ack_signer = 0; ack_batch = id })
    (Keystate.batches (Option.get (Signer.store signer)));
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
        Alcotest.test_case "clean reopen burns nothing" `Quick test_keystate_clean_reopen;
        Alcotest.test_case "fingerprint mismatch refused" `Quick test_keystate_fingerprint_mismatch;
        Alcotest.test_case "checkpoints prune segments" `Quick test_keystate_checkpoint_prunes;
        Alcotest.test_case "scan of missing store errors" `Quick test_keystate_scan_missing;
        QCheck_alcotest.to_alcotest ~long:false record_roundtrip_qcheck;
        QCheck_alcotest.to_alcotest ~long:false record_decode_total_qcheck;
        QCheck_alcotest.to_alcotest ~long:false keystate_crash_qcheck;
        QCheck_alcotest.to_alcotest ~long:false rotation_crash_qcheck;
      ] );
    ( "store-integration",
      [
        Alcotest.test_case "signer restart never reuses keys" `Quick test_signer_restart_no_reuse;
        Alcotest.test_case "runtime restart resumes batch counter" `Quick test_runtime_restart;
        Alcotest.test_case "options with_* are order independent" `Quick
          test_options_order_independence;
        Alcotest.test_case "store-backed signer keeps the control plane" `Quick
          test_control_plane_conformance;
        Alcotest.test_case "logfile truncation offsets" `Quick test_logfile_truncation_offsets;
      ] );
  ]
