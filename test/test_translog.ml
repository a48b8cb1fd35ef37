(* The transparency plane (ISSUE 6): the incremental Merkle log-tree's
   proof algebra under qcheck (every leaf provable, single-bit mutations
   caught, all (m <= n) consistency pairs), the durable translog's
   crash/anchor discipline, the checkpoint/serve wire codecs, the
   split-view monitor against forked logs, the Scrape /checkpoint mount
   with its uniform error responses, and the end-to-end Deploy run:
   >= 1k issued signatures logged, inclusion proofs fetched over TCP,
   checkpoints gossiped to every party's monitor, an injected split view
   detected, and a kill/restart bridged by a pre-crash checkpoint. *)

open Dsig
module Logtree = Dsig_merkle.Logtree
module Translog = Dsig_translog.Translog
module Checkpoint = Dsig_translog.Checkpoint
module Monitor = Dsig_translog.Monitor
module Serve = Dsig_translog.Serve
module Scrape = Dsig_tcpnet.Scrape
module Eddsa = Dsig_ed25519.Eddsa
module Rng = Dsig_util.Rng
module Sim = Dsig_simnet.Sim
module Deploy = Dsig_deploy.Deploy

(* mkdtemp: claim a unique temp name, swap the file for a directory *)
let fresh_dir () =
  let f = Filename.temp_file "dsig-test-translog" "" in
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

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let flip_bit s bit =
  let b = Bytes.of_string s in
  let pos = bit / 8 mod Bytes.length b in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

(* one log identity shared by the deterministic tests *)
let log_sk, log_pk = Eddsa.generate (Rng.create 4242L)
let log_verify ~msg ~signature = Eddsa.verify log_pk msg signature
let log_sign body = Eddsa.sign log_sk body

(* --- codecs --- *)

let test_entry_roundtrip () =
  let e = { Translog.signer = 7; op = "transfer 12 -> 9"; signature = String.make 40 's' } in
  (match Translog.decode_entry (Translog.encode_entry e) with
  | Ok e' -> Alcotest.(check bool) "roundtrip" true (e = e')
  | Error err -> Alcotest.failf "decode: %s" err);
  (* empty fields survive too *)
  let e0 = { Translog.signer = 0; op = ""; signature = "" } in
  match Translog.decode_entry (Translog.encode_entry e0) with
  | Ok e' -> Alcotest.(check bool) "empty fields" true (e0 = e')
  | Error err -> Alcotest.failf "decode empty: %s" err

let entry_decode_total_qcheck =
  let open QCheck in
  Test.make ~name:"entry decode is total" ~count:300 (string_of_size Gen.(0 -- 64))
    (fun junk ->
      match Translog.decode_entry junk with Ok _ -> true | Error _ -> true)

let test_checkpoint_codec () =
  let root = String.init 32 (fun i -> Char.chr (i * 7 mod 256)) in
  let cp = Checkpoint.make ~log_id:3 ~tree_size:17 ~root ~sign:log_sign in
  (match Checkpoint.decode (Checkpoint.encode cp) with
  | Ok cp' -> Alcotest.(check bool) "roundtrip" true (cp = cp')
  | Error e -> Alcotest.failf "decode: %s" e);
  Alcotest.(check bool) "signature verifies" true (Checkpoint.verify ~verify:log_verify cp);
  let tampered = { cp with Checkpoint.root = flip_bit root 13 } in
  Alcotest.(check bool) "tampered root rejected" false
    (Checkpoint.verify ~verify:log_verify tampered);
  let enc = Checkpoint.encode cp in
  (match Checkpoint.decode (String.sub enc 0 (String.length enc - 3)) with
  | Ok _ -> Alcotest.fail "truncated checkpoint accepted"
  | Error _ -> ());
  match Checkpoint.decode (enc ^ "x") with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error _ -> ()

let test_serve_request_codec () =
  List.iter
    (fun r ->
      match Serve.decode_request (Serve.encode_request r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error e -> Alcotest.failf "decode: %s" e)
    [
      Serve.Get_checkpoint;
      Serve.Get_inclusion { size = 1024; index = 17 };
      Serve.Get_consistency { old_size = 12; new_size = 900 };
    ];
  match Serve.decode_request "zzz" with
  | Ok _ -> Alcotest.fail "junk request accepted"
  | Error _ -> ()

(* --- log-tree proof algebra (qcheck) --- *)

let build_tree n seed =
  let t = Logtree.create () in
  let leaves = List.init n (fun i -> Printf.sprintf "leaf-%d-%d" seed i) in
  List.iter (fun l -> ignore (Logtree.append t l)) leaves;
  (t, Array.of_list leaves)

let inclusion_all_qcheck =
  let open QCheck in
  Test.make ~name:"inclusion proofs verify for every appended leaf" ~count:60
    (pair (int_range 1 60) small_int)
    (fun (n, seed) ->
      let t, leaves = build_tree n seed in
      let root = Logtree.root t in
      List.for_all
        (fun i ->
          let proof = Logtree.inclusion_proof t ~index:i () in
          Logtree.verify_inclusion ~root ~size:n ~index:i ~leaf:leaves.(i) proof)
        (List.init n Fun.id))

let inclusion_mutation_qcheck =
  let open QCheck in
  Test.make ~name:"inclusion proofs fail under single-bit mutation" ~count:150
    (quad (int_range 1 60) small_int small_int small_int)
    (fun (n, seed, ipick, bitpick) ->
      let t, leaves = build_tree n seed in
      let index = ipick mod n in
      let root = Logtree.root t in
      let proof = Logtree.inclusion_proof t ~index () in
      let leaf = leaves.(index) in
      let verify ~root ~leaf proof =
        Logtree.verify_inclusion ~root ~size:n ~index ~leaf proof
      in
      match (bitpick mod 3, proof) with
      | 1, _ -> not (verify ~root:(flip_bit root bitpick) ~leaf proof)
      | 2, _ :: _ ->
          let k = seed mod List.length proof in
          let mutated = List.mapi (fun i d -> if i = k then flip_bit d bitpick else d) proof in
          not (verify ~root ~leaf mutated)
      | _ -> not (verify ~root ~leaf:(flip_bit leaf bitpick) proof))

let consistency_all_pairs_qcheck =
  let open QCheck in
  Test.make ~name:"consistency proofs hold for every prefix pair" ~count:40
    (pair (int_range 1 40) small_int)
    (fun (n, seed) ->
      let t, _ = build_tree n seed in
      let new_root = Logtree.root t in
      List.for_all
        (fun m ->
          let m = m + 1 in
          let proof = Logtree.consistency_proof t ~old_size:m ~new_size:n in
          Logtree.verify_consistency ~old_root:(Logtree.root_at t m) ~old_size:m ~new_root
            ~new_size:n proof)
        (List.init n Fun.id))

(* --- durable log: reopen, anchors, crashes --- *)

let append_n log ?(tag = "op") n =
  for i = 0 to n - 1 do
    ignore
      (Translog.append log ~signer:(i mod 5) ~op:(Printf.sprintf "%s-%d" tag i)
         ~signature:(Printf.sprintf "sig-%s-%d" tag i))
  done

let test_reopen_roundtrip () =
  with_dir @@ fun dir ->
  let root_before =
    match Translog.open_ ~fsync:false ~dir () with
    | Error e -> Alcotest.failf "open: %s" e
    | Ok (log, r) ->
        Alcotest.(check int) "fresh log empty" 0 r.Translog.entries;
        append_n log 9;
        let root = Translog.root log in
        Translog.close log;
        root
  in
  match Translog.open_ ~fsync:false ~dir () with
  | Error e -> Alcotest.failf "reopen: %s" e
  | Ok (log, r) ->
      Alcotest.(check int) "entries replayed" 9 r.Translog.entries;
      Alcotest.(check int) "size" 9 (Translog.size log);
      Alcotest.(check string) "root preserved" root_before (Translog.root log);
      (match Translog.entry log 4 with
      | Some e ->
          Alcotest.(check int) "signer" 4 e.Translog.signer;
          Alcotest.(check string) "op" "op-4" e.Translog.op
      | None -> Alcotest.fail "entry 4 missing");
      Translog.close log

let test_checkpoint_caching_and_rotation () =
  with_dir @@ fun dir ->
  match Translog.open_ ~fsync:false ~dir () with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok (log, _) ->
      append_n log 5;
      let cp5 = Translog.checkpoint log ~log_id:1 ~sign:log_sign in
      Alcotest.(check int) "covers 5" 5 cp5.Checkpoint.tree_size;
      let again = Translog.checkpoint log ~log_id:1 ~sign:log_sign in
      Alcotest.(check bool) "cached while idle" true (cp5 = again);
      append_n log ~tag:"more" 1;
      let cp6 = Translog.checkpoint log ~log_id:1 ~sign:log_sign in
      Alcotest.(check int) "covers 6" 6 cp6.Checkpoint.tree_size;
      Alcotest.(check bool) "latest tracks" true
        (Translog.latest_checkpoint log = Some cp6);
      (* rotation at checkpoint boundaries: more than one segment now *)
      let segments =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> String.length f >= 4 && String.sub f 0 4 = "log-")
      in
      Alcotest.(check bool) "segments rotated" true (List.length segments >= 2);
      Translog.close log

let test_proof_errors_not_exceptions () =
  with_dir @@ fun dir ->
  match Translog.open_ ~fsync:false ~dir () with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok (log, _) ->
      append_n log 4;
      let bad r = match r with Ok _ -> Alcotest.fail "bad input accepted" | Error _ -> () in
      bad (Translog.prove_inclusion log ~index:(-1) ());
      bad (Translog.prove_inclusion log ~index:4 ());
      bad (Translog.prove_inclusion log ~size:9 ~index:0 ());
      bad (Translog.prove_consistency log ~old_size:0 ~new_size:4);
      bad (Translog.prove_consistency log ~old_size:3 ~new_size:9);
      Translog.close log

let test_anchor_divergence_refused () =
  with_dir @@ fun dir ->
  (match Translog.open_ ~fsync:false ~dir () with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok (log, _) ->
      append_n log 5;
      ignore (Translog.checkpoint log ~log_id:1 ~sign:log_sign);
      Translog.close log);
  (* corrupt the anchored segment: repair truncates the torn record, the
     replayed tree can no longer reproduce the anchored root *)
  let covered =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> String.length f >= 4 && String.sub f 0 4 = "log-")
    |> List.sort compare |> List.hd
  in
  let path = Filename.concat dir covered in
  let data = read_file path in
  write_file path (flip_bit data ((String.length data - 3) * 8));
  match Translog.open_ ~fsync:false ~dir () with
  | Ok _ -> Alcotest.fail "diverged log opened anyway"
  | Error e -> Alcotest.(check bool) "names the anchor" true (contains e "anchor")

let test_crash_burns_tail_keeps_checkpoint () =
  with_dir @@ fun dir ->
  let cp =
    match Translog.open_ ~fsync:false ~dir () with
    | Error e -> Alcotest.failf "open: %s" e
    | Ok (log, _) ->
        append_n log 10;
        let cp = Translog.checkpoint log ~log_id:1 ~sign:log_sign in
        (* a tail the crash may tear off; the checkpoint must survive *)
        append_n log ~tag:"tail" 10;
        Translog.crash log;
        cp
  in
  match Translog.open_ ~fsync:false ~dir () with
  | Error e -> Alcotest.failf "reopen after crash: %s" e
  | Ok (log, r) ->
      Alcotest.(check int) "anchor covers the checkpoint" 10 r.Translog.anchor_size;
      let size = Translog.size log in
      Alcotest.(check bool) "no phantom entries" true (size >= 10 && size <= 20);
      (match Translog.prove_consistency log ~old_size:10 ~new_size:size with
      | Error e -> Alcotest.failf "consistency: %s" e
      | Ok proof ->
          Alcotest.(check bool) "pre-crash checkpoint still provable" true
            (Logtree.verify_consistency ~old_root:cp.Checkpoint.root ~old_size:10
               ~new_root:(Translog.root log) ~new_size:size proof));
      Translog.close log

(* --- split-view monitor --- *)

let fetch_from tree ~old_size ~new_size =
  if old_size < 1 || old_size > new_size || new_size > Logtree.size tree then
    Error "out of range"
  else Ok (Logtree.consistency_proof tree ~old_size ~new_size)

let cp_of ?(log_id = 9) tree =
  Checkpoint.make ~log_id ~tree_size:(Logtree.size tree) ~root:(Logtree.root tree)
    ~sign:log_sign

let mk_monitor ?(log_id = 9) () = Monitor.create ~log_id ~verify:log_verify ()

let test_monitor_honest_growth () =
  let t = Logtree.create () in
  let mon = mk_monitor () in
  let observe cp = Monitor.observe mon cp ~fetch_consistency:(fetch_from t) in
  for i = 0 to 2 do
    ignore (Logtree.append t (Printf.sprintf "e%d" i))
  done;
  let cp3 = cp_of t in
  Alcotest.(check bool) "first head" true (observe cp3 = Monitor.Advanced);
  for i = 3 to 6 do
    ignore (Logtree.append t (Printf.sprintf "e%d" i))
  done;
  let cp7 = cp_of t in
  Alcotest.(check bool) "grows" true (observe cp7 = Monitor.Advanced);
  Alcotest.(check bool) "duplicate" true (observe cp7 = Monitor.Duplicate);
  Alcotest.(check bool) "stale but consistent" true (observe cp3 = Monitor.Stale);
  Alcotest.(check (list string)) "no alarms" []
    (List.map Monitor.alarm_to_string (Monitor.alarms mon));
  match Monitor.head mon with
  | Some h -> Alcotest.(check int) "head size" 7 h.Checkpoint.tree_size
  | None -> Alcotest.fail "no head"

let test_monitor_bad_signature_and_wrong_log () =
  let t = Logtree.create () in
  ignore (Logtree.append t "x");
  let mon = mk_monitor () in
  let forged_sk, _ = Eddsa.generate (Rng.create 777L) in
  let forged =
    Checkpoint.make ~log_id:9 ~tree_size:1 ~root:(Logtree.root t)
      ~sign:(Eddsa.sign forged_sk)
  in
  (match Monitor.observe mon forged ~fetch_consistency:(fetch_from t) with
  | Monitor.Alarmed Monitor.Bad_signature -> ()
  | _ -> Alcotest.fail "forged signature accepted");
  let other_log = cp_of ~log_id:8 t in
  (match Monitor.observe mon other_log ~fetch_consistency:(fetch_from t) with
  | Monitor.Alarmed (Monitor.Wrong_log { expected = 9; got = 8 }) -> ()
  | _ -> Alcotest.fail "wrong log id accepted");
  Alcotest.(check int) "both alarmed" 2 (List.length (Monitor.alarms mon))

let test_monitor_split_view_same_size () =
  let ta = Logtree.create () and tb = Logtree.create () in
  for i = 0 to 4 do
    ignore (Logtree.append ta (Printf.sprintf "shared-%d" i));
    ignore (Logtree.append tb (Printf.sprintf "shared-%d" i))
  done;
  ignore (Logtree.append ta "honest-5");
  ignore (Logtree.append tb "equivocating-5");
  let mon = mk_monitor () in
  Alcotest.(check bool) "honest head" true
    (Monitor.observe mon (cp_of ta) ~fetch_consistency:(fetch_from ta)
    = Monitor.Advanced);
  (match Monitor.observe mon (cp_of tb) ~fetch_consistency:(fetch_from tb) with
  | Monitor.Alarmed (Monitor.Split_view { size = 6; _ }) -> ()
  | v ->
      Alcotest.failf "fork not flagged as split view (%s)"
        (match v with
        | Monitor.Alarmed a -> Monitor.alarm_to_string a
        | Monitor.Advanced -> "advanced"
        | Monitor.Stale -> "stale"
        | Monitor.Duplicate -> "duplicate"));
  Alcotest.(check int) "split view counted" 1 (Monitor.split_views mon);
  (* the honest head survives the attack *)
  match Monitor.head mon with
  | Some h -> Alcotest.(check string) "head unchanged" (Logtree.root ta) h.Checkpoint.root
  | None -> Alcotest.fail "head lost"

let monitor_fork_qcheck =
  let open QCheck in
  Test.make ~name:"monitor flags any fork built from a shared prefix" ~count:40
    (quad (int_range 1 24) (int_range 1 12) (int_range 1 12) small_int)
    (fun (p, a, b, seed) ->
      let mk tag extra =
        let t = Logtree.create () in
        for i = 0 to p - 1 do
          ignore (Logtree.append t (Printf.sprintf "shared-%d-%d" seed i))
        done;
        for i = 0 to extra - 1 do
          ignore (Logtree.append t (Printf.sprintf "%s-%d-%d" tag seed i))
        done;
        t
      in
      let ta = mk "a" a and tb = mk "b" b in
      let mon = mk_monitor () in
      let v1 = Monitor.observe mon (cp_of ta) ~fetch_consistency:(fetch_from ta) in
      let v2 = Monitor.observe mon (cp_of tb) ~fetch_consistency:(fetch_from tb) in
      v1 = Monitor.Advanced
      && (match v2 with Monitor.Alarmed _ -> true | _ -> false)
      && Monitor.alarms mon <> [])

(* --- proof service and scrape mount --- *)

let test_serve_roundtrips () =
  with_dir @@ fun dir ->
  match Translog.open_ ~fsync:false ~dir () with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok (log, _) ->
      append_n log 30;
      let srv = Serve.serve ~port:0 ~log ~log_id:2 ~sign:log_sign () in
      let port = Serve.port srv in
      Fun.protect
        ~finally:(fun () ->
          Serve.stop srv;
          Translog.close log)
        (fun () ->
          let cp =
            match Serve.fetch_checkpoint ~port () with
            | Ok cp -> cp
            | Error e -> Alcotest.failf "fetch checkpoint: %s" e
          in
          Alcotest.(check int) "covers all entries" 30 cp.Checkpoint.tree_size;
          Alcotest.(check bool) "signed head verifies" true
            (Checkpoint.verify ~verify:log_verify cp);
          List.iter
            (fun index ->
              match Serve.fetch_inclusion ~port ~size:30 ~index () with
              | Error e -> Alcotest.failf "fetch inclusion %d: %s" index e
              | Ok proof ->
                  Alcotest.(check bool)
                    (Printf.sprintf "inclusion %d verifies" index)
                    true
                    (Logtree.verify_inclusion ~root:cp.Checkpoint.root ~size:30 ~index
                       ~leaf:(Option.get (Translog.leaf log index))
                       proof))
            [ 0; 1; 15; 29 ];
          (match Serve.fetch_consistency ~port ~old_size:7 ~new_size:30 () with
          | Error e -> Alcotest.failf "fetch consistency: %s" e
          | Ok proof ->
              Alcotest.(check bool) "consistency verifies" true
                (Logtree.verify_consistency ~old_root:(Translog.root_at log 7) ~old_size:7
                   ~new_root:cp.Checkpoint.root ~new_size:30 proof));
          (* bad requests come back as errors, not dropped connections *)
          match Serve.fetch_inclusion ~port ~size:30 ~index:99 () with
          | Ok _ -> Alcotest.fail "out-of-range proof served"
          | Error _ -> ())

let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = "GET " ^ path ^ " HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec loop () =
        let k = Unix.read fd chunk 0 4096 in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          loop ()
        end
      in
      (try loop () with Unix.Unix_error _ -> ());
      Buffer.contents buf)

let test_scrape_checkpoint_and_uniform_errors () =
  with_dir @@ fun dir ->
  match Translog.open_ ~fsync:false ~dir () with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok (log, _) ->
      append_n log 12;
      let scrape =
        Scrape.start ~routes:[ Serve.checkpoint_route ~log ~log_id:4 ~sign:log_sign ] ~port:0 ()
      in
      let port = Scrape.port scrape in
      Fun.protect
        ~finally:(fun () ->
          Scrape.stop scrape;
          Translog.close log)
        (fun () ->
          (match Scrape.fetch ~port ~path:"/checkpoint" with
          | Error e -> Alcotest.failf "/checkpoint: %s" e
          | Ok body ->
              Alcotest.(check bool) "carries the size" true (contains body "\"tree_size\":12"));
          (* uniform error responses: even a 404 is a complete HTTP
             response whose Content-Length matches its body *)
          let raw = http_get ~port "/no-such-page" in
          Alcotest.(check bool) "status line present" true
            (String.length raw > 12 && String.sub raw 0 9 = "HTTP/1.0 ");
          Alcotest.(check bool) "is a 404" true (contains raw "404");
          let sep =
            let rec find i =
              if i + 4 > String.length raw then Alcotest.fail "no header terminator"
              else if String.sub raw i 4 = "\r\n\r\n" then i
              else find (i + 1)
            in
            find 0
          in
          let body = String.sub raw (sep + 4) (String.length raw - sep - 4) in
          let clen =
            let headers = String.sub raw 0 sep in
            String.split_on_char '\n' headers
            |> List.filter_map (fun line ->
                   let line = String.trim line in
                   let key = "content-length:" in
                   if
                     String.length line > String.length key
                     && String.lowercase_ascii (String.sub line 0 (String.length key)) = key
                   then
                     int_of_string_opt
                       (String.trim
                          (String.sub line (String.length key)
                             (String.length line - String.length key)))
                   else None)
            |> function
            | [ n ] -> n
            | _ -> Alcotest.fail "missing Content-Length header"
          in
          Alcotest.(check int) "Content-Length matches body" (String.length body) clen;
          Alcotest.(check bool) "404 body nonempty" true (String.length body > 0))

(* --- end to end: deployment, gossip, split view, kill/restart --- *)

let small_cfg = Config.make ~batch_size:8 ~queue_threshold:8 (Config.wots ~d:4)

let test_deploy_transparency_e2e () =
  with_dir @@ fun dir ->
  let sim = Sim.create () in
  let deploy = Deploy.create ~translog_dir:dir ~log_id:5 sim small_cfg ~n:3 () in
  let until = ref 0.0 in
  let advance du =
    until := !until +. du;
    Sim.run ~until:!until sim
  in
  advance 2_000.0;
  (* every issued signature lands in the shared transparency log *)
  for i = 1 to 1_000 do
    ignore (Deploy.sign deploy ~signer:0 ~hint:[ 1 ] (Printf.sprintf "payment-%d" i));
    if i mod 100 = 0 then advance 1_000.0
  done;
  advance 5_000.0;
  let log = Option.get (Deploy.translog deploy) in
  let sk = Option.get (Deploy.translog_sk deploy) in
  let pk = Option.get (Deploy.translog_pk deploy) in
  Alcotest.(check bool) "1k signatures logged" true (Translog.size log >= 1_000);
  Alcotest.(check bool) "checkpoints gossiped" true (Deploy.checkpoints_gossiped deploy > 0);
  (* honest run: every party's monitor advanced and nothing alarmed *)
  for i = 0 to 2 do
    let mon = Option.get (Deploy.monitor deploy i) in
    (match Monitor.head mon with
    | Some h ->
        Alcotest.(check bool)
          (Printf.sprintf "monitor %d head advanced" i)
          true
          (h.Checkpoint.tree_size > 0)
    | None -> Alcotest.failf "monitor %d never saw a checkpoint" i);
    Alcotest.(check int) (Printf.sprintf "monitor %d clean" i) 0
      (List.length (Monitor.alarms mon))
  done;
  (* a verifier fetches inclusion proofs for issued signatures over TCP *)
  let srv = Serve.serve ~port:0 ~log ~log_id:5 ~sign:(Eddsa.sign sk) () in
  let port = Serve.port srv in
  let cp =
    match Serve.fetch_checkpoint ~port () with
    | Ok cp -> cp
    | Error e -> Alcotest.failf "fetch checkpoint: %s" e
  in
  Alcotest.(check bool) "served head verifies" true
    (Checkpoint.verify
       ~verify:(fun ~msg ~signature -> Eddsa.verify pk msg signature)
       cp);
  let n = cp.Checkpoint.tree_size in
  List.iter
    (fun index ->
      match Serve.fetch_inclusion ~port ~size:n ~index () with
      | Error e -> Alcotest.failf "fetch inclusion %d: %s" index e
      | Ok proof ->
          Alcotest.(check bool)
            (Printf.sprintf "inclusion %d verifies over tcp" index)
            true
            (Logtree.verify_inclusion ~root:cp.Checkpoint.root ~size:n ~index
               ~leaf:(Option.get (Translog.leaf log index))
               proof))
    [ 0; n / 3; n / 2; n - 1 ];
  Serve.stop srv;
  (* split-view injection: the log's own key equivocates over the same
     gossip path honest heads take; every monitor must catch it *)
  let head0 = Option.get (Monitor.head (Option.get (Deploy.monitor deploy 0))) in
  let forged =
    Checkpoint.make ~log_id:5 ~tree_size:head0.Checkpoint.tree_size
      ~root:(String.make 32 '\xAB') ~sign:(Eddsa.sign sk)
  in
  Deploy.gossip_checkpoint deploy (Checkpoint.encode forged);
  advance 2_000.0;
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "monitor %d caught the split view" i)
      true
      (Monitor.split_views (Option.get (Deploy.monitor deploy i)) >= 1)
  done;
  (* kill/restart: the pre-crash checkpoint bridges to the reopened log *)
  let cp_pre = Option.get (Translog.latest_checkpoint log) in
  Alcotest.(check bool) "pre-crash checkpoint exists" true (cp_pre.Checkpoint.tree_size > 0);
  for i = 1 to 25 do
    ignore (Deploy.sign deploy ~signer:0 ~hint:[ 1 ] (Printf.sprintf "doomed-%d" i))
  done;
  Translog.crash log;
  Deploy.close deploy;
  match Translog.open_ ~fsync:false ~dir () with
  | Error e -> Alcotest.failf "reopen after kill: %s" e
  | Ok (log2, r) ->
      Alcotest.(check int) "anchor covers last gossiped head" cp_pre.Checkpoint.tree_size
        r.Translog.anchor_size;
      let size = Translog.size log2 in
      Alcotest.(check bool) "durable entries survive" true
        (size >= cp_pre.Checkpoint.tree_size);
      (match
         Translog.prove_consistency log2 ~old_size:cp_pre.Checkpoint.tree_size ~new_size:size
       with
      | Error e -> Alcotest.failf "post-restart consistency: %s" e
      | Ok proof ->
          Alcotest.(check bool) "pre-crash head consistent with restarted log" true
            (Logtree.verify_consistency ~old_root:cp_pre.Checkpoint.root
               ~old_size:cp_pre.Checkpoint.tree_size ~new_root:(Translog.root log2)
               ~new_size:size proof));
      Translog.close log2

let () =
  Alcotest.run "dsig-translog"
    [
      ( "translog-codec",
        [
          Alcotest.test_case "entry roundtrip" `Quick test_entry_roundtrip;
          QCheck_alcotest.to_alcotest ~long:false entry_decode_total_qcheck;
          Alcotest.test_case "checkpoint codec and signature" `Quick test_checkpoint_codec;
          Alcotest.test_case "serve request codec" `Quick test_serve_request_codec;
        ] );
      ( "translog-tree",
        [
          QCheck_alcotest.to_alcotest ~long:false inclusion_all_qcheck;
          QCheck_alcotest.to_alcotest ~long:false inclusion_mutation_qcheck;
          QCheck_alcotest.to_alcotest ~long:false consistency_all_pairs_qcheck;
        ] );
      ( "translog-store",
        [
          Alcotest.test_case "reopen roundtrip" `Quick test_reopen_roundtrip;
          Alcotest.test_case "checkpoint caching and rotation" `Quick
            test_checkpoint_caching_and_rotation;
          Alcotest.test_case "proof errors never raise" `Quick test_proof_errors_not_exceptions;
          Alcotest.test_case "anchor divergence refused" `Quick test_anchor_divergence_refused;
          Alcotest.test_case "crash burns tail, keeps checkpoint" `Quick
            test_crash_burns_tail_keeps_checkpoint;
        ] );
      ( "translog-monitor",
        [
          Alcotest.test_case "honest growth" `Quick test_monitor_honest_growth;
          Alcotest.test_case "bad signature and wrong log" `Quick
            test_monitor_bad_signature_and_wrong_log;
          Alcotest.test_case "split view at equal size" `Quick test_monitor_split_view_same_size;
          QCheck_alcotest.to_alcotest ~long:false monitor_fork_qcheck;
        ] );
      ( "translog-net",
        [
          Alcotest.test_case "serve roundtrips" `Quick test_serve_roundtrips;
          Alcotest.test_case "scrape checkpoint and uniform errors" `Quick
            test_scrape_checkpoint_and_uniform_errors;
        ] );
      ( "translog-e2e",
        [ Alcotest.test_case "deploy transparency plane" `Quick test_deploy_transparency_e2e ] );
    ]
