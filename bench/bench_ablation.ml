(* Ablations of DSig's design choices (§4.4, §5.2), beyond the paper's
   own figures — each knob exists in the library and is exercised here:

   1. Merkle batching of HBSS public keys (batch 128 vs none)
   2. W-OTS+ chain caching (signing = copying vs rewalking chains)
   3. Background bandwidth reduction (digests vs full public keys)
   4. The EdDSA verification cache during bulk audits *)

module CM = Dsig_costmodel.Costmodel
open Dsig

let cm = CM.paper_dalek

let batching () =
  Harness.subsection "1. EdDSA batching (model)";
  let row b =
    let cfg = Config.make ~batch_size:b ~queue_threshold:(max b 512) (Config.wots ~d:4) in
    [
      (if b = 1 then "no batching" else Printf.sprintf "batch %d" b);
      string_of_int (Wire.size_bytes cfg);
      Harness.us2 (CM.dsig_keygen_per_key_us cm cfg);
      Harness.kops (1e6 /. (CM.dsig_sign_us cm cfg ~msg_bytes:8 +. CM.dsig_keygen_per_key_us cm cfg));
    ]
  in
  Harness.print_table
    ~header:[ "config"; "sig B"; "bg us/key"; "sign k/s/core" ]
    [ row 1; row 128 ]

let chain_caching () =
  Harness.subsection "2. W-OTS+ chain caching (real measurement)";
  let open Bechamel in
  let p = Dsig_hbss.Params.Wots.make ~d:4 () in
  let rng = Dsig_util.Rng.create 4L in
  let seed = Dsig_util.Rng.bytes rng 32 in
  let cached = Dsig_hbss.Wots.generate ~cache_chains:true p ~seed in
  let uncached = Dsig_hbss.Wots.generate ~cache_chains:false p ~seed in
  let nonce = Dsig_util.Rng.bytes rng 16 in
  let r =
    Harness.run_bechamel
      [
        Test.make ~name:"cached"
          (Staged.stage (fun () -> Dsig_hbss.Wots.sign ~allow_reuse:true cached ~nonce "msg"));
        Test.make ~name:"uncached"
          (Staged.stage (fun () -> Dsig_hbss.Wots.sign ~allow_reuse:true uncached ~nonce "msg"));
      ]
  in
  let get n = List.assoc n r /. 1000.0 in
  Harness.print_table
    ~header:[ "mode"; "sign us (host)" ]
    [ [ "chains cached (copying)"; Harness.us2 (get "cached") ];
      [ "chains recomputed"; Harness.us2 (get "uncached") ] ];
  Printf.printf "caching speeds signing %.1fx (paper: signing reduces to string copying)\n"
    (get "uncached" /. get "cached")

let bandwidth_reduction () =
  Harness.subsection "3. background bandwidth reduction (wire accounting)";
  let cfg = Config.make (Config.wots ~d:4) in
  let p = Dsig_hbss.Params.Wots.make ~d:4 () in
  let reduced = Batch.announcement_wire_bytes cfg in
  (* W-OTS+ announces digests only; full keys would add each key's
     32-byte public seed and its l chain ends *)
  let full =
    reduced + (cfg.Config.batch_size * (32 + (p.Dsig_hbss.Params.Wots.l * p.Dsig_hbss.Params.Wots.n)))
  in
  let per bytes = float_of_int bytes /. float_of_int cfg.Config.batch_size in
  Harness.print_table
    ~header:[ "mode"; "bg B per signature per verifier" ]
    [
      [ "digests only (default)"; Printf.sprintf "%.1f" (per reduced) ];
      [ "full public keys"; Printf.sprintf "%.1f" (per full) ];
    ];
  Printf.printf "verification must recompute the key digest: +%.1f us on the critical path\n"
    (float_of_int (32 + (68 * 18)) *. cm.CM.blake3_per_byte_us)

let eddsa_cache () =
  Harness.subsection "4. EdDSA verification cache during a bulk audit (real measurement)";
  let entries = 60 in
  let mk_cfg c = Config.make ~batch_size:32 ~queue_threshold:32 ~eddsa_verify_cache:c (Config.wots ~d:4) in
  let sys = Dsig.System.create (mk_cfg true) ~n:2 () in
  let ops =
    List.init entries (fun i ->
        let op = Printf.sprintf "audit-entry-%04d" i in
        (op, Dsig.System.sign sys ~signer:1 ~hint:[ 0 ] op))
  in
  let time_audit cached =
    let v = Verifier.create (mk_cfg cached) ~id:77 ~pki:(System.pki sys) () in
    let t0 = Sys.time () in
    List.iter (fun (op, s) -> assert (Verifier.verify v ~msg:op s)) ops;
    ((Sys.time () -. t0) *. 1e6 /. float_of_int entries, Verifier.stats v)
  in
  let with_cache, st = time_audit true in
  let without_cache, _ = time_audit false in
  Harness.print_table
    ~header:[ "mode"; "us/entry (host)" ]
    [
      [ "cache on"; Harness.us with_cache ];
      [ "cache off"; Harness.us without_cache ];
    ];
  Printf.printf "cache hits: %d of %d entries; speedup %.1fx (paper: ~33 B buys ~36 us)\n"
    st.Verifier.eddsa_cache_hits entries (without_cache /. with_cache)

let mss_baseline () =
  Harness.subsection "5. stateful MSS instead of the hybrid scheme (the §9 alternative)";
  (* A pure hash-based many-time scheme needs no EdDSA and no background
     plane, but pays the whole key up front and walks its inclusion
     proof online. Real timings for a 2^8-message key: *)
  let height = 8 in
  let t0 = Sys.time () in
  let kp = Dsig_hbss.Mss.generate ~height ~seed:(String.make 32 'q') () in
  let keygen_ms = (Sys.time () -. t0) *. 1000.0 in
  let msg = "mss vs dsig" in
  let t0 = Sys.time () in
  let s = Dsig_hbss.Mss.sign kp msg in
  let sign_us = (Sys.time () -. t0) *. 1e6 in
  let pk = Dsig_hbss.Mss.public_key kp in
  let iters = 50 in
  let t0 = Sys.time () in
  for _ = 1 to iters do
    assert (Dsig_hbss.Mss.verify ~public_key:pk s msg)
  done;
  let verify_us = (Sys.time () -. t0) *. 1e6 /. float_of_int iters in
  Harness.print_table
    ~header:[ "metric"; "MSS h=8 (host)"; "DSig (host, tab1)" ]
    [
      [ "messages per key"; "256"; "unlimited" ];
      [ "key generation"; Printf.sprintf "%.0f ms up front" keygen_ms; "7.4 us/key in background (model)" ];
      [ "sign us"; Harness.us2 sign_us; "~2.7" ];
      [ "verify us"; Harness.us2 verify_us; "~460" ];
      [ "signature B"; string_of_int (Dsig_hbss.Mss.signature_bytes ~height ()); "1584" ];
      [ "quantum-safe"; "yes"; "no (EdDSA root)" ];
    ]

let eddsa_batch_verify () =
  Harness.subsection "6. Ed25519 batch verification (real measurement)";
  (* the amortization technique the paper cites ([86]) for EdDSA
     throughput; DSig instead amortizes via Merkle batching, but the
     primitive is available in lib/ed25519 *)
  let rng = Dsig_util.Rng.create 9L in
  let module E = Dsig_ed25519.Eddsa in
  let entries =
    List.init 16 (fun i ->
        let sk, pk = E.generate rng in
        let msg = Printf.sprintf "batched %d" i in
        (pk, msg, E.sign sk msg))
  in
  let t0 = Sys.time () in
  List.iter (fun (pk, m, s) -> assert (E.verify pk m s)) entries;
  let individual = (Sys.time () -. t0) *. 1e6 /. 16.0 in
  let t0 = Sys.time () in
  assert (E.verify_batch rng entries);
  let batched = (Sys.time () -. t0) *. 1e6 /. 16.0 in
  Harness.print_table
    ~header:[ "mode"; "us per signature (host)" ]
    [ [ "individual verify"; Harness.us individual ]; [ "batch of 16"; Harness.us batched ] ];
  Printf.printf "batch verification: %.1fx (shared-doubling multi-scalar multiplication)\n"
    (individual /. batched)

let multiproof_compression () =
  Harness.subsection "7. multiproofs for merklified-HORS signatures (real accounting)";
  (* our HORS-M wire format carries k independent inclusion proofs; a
     shared-path multiproof per forest tree would shrink the dominant
     signature component *)
  let p = Dsig_hbss.Params.Hors.make ~k:16 () in
  let kp = Dsig_hbss.Hors.generate p ~seed:(String.make 32 'm') in
  let trees = 8 in
  let forest = Dsig_hbss.Hors.forest ~trees kp in
  ignore forest;
  let elements = Dsig_hbss.Hors.public_elements kp in
  let per_tree = p.Dsig_hbss.Params.Hors.t / trees in
  let nonce = String.make 16 'n' in
  let indices =
    Dsig_hbss.Hors.message_indices p ~public_seed:(Dsig_hbss.Hors.public_seed kp) ~nonce
      "multiproof ablation"
  in
  (* group indices by tree and compare independent vs shared proofs *)
  let by_tree = Hashtbl.create 8 in
  Array.iter
    (fun idx ->
      let tr = idx / per_tree in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_tree tr) in
      if not (List.mem (idx mod per_tree) cur) then
        Hashtbl.replace by_tree tr ((idx mod per_tree) :: cur))
    indices;
  let naive = ref 0 and shared = ref 0 in
  Hashtbl.iter
    (fun tr idx ->
      let tree = Dsig_merkle.Merkle.build (Array.sub elements (tr * per_tree) per_tree) in
      let mp = Dsig_merkle.Merkle.Multiproof.create tree idx in
      (* sanity: it verifies *)
      assert (
        Dsig_merkle.Merkle.Multiproof.verify
          ~root:(Dsig_merkle.Merkle.root tree)
          ~leaves:(List.map (fun i -> (i, elements.((tr * per_tree) + i))) idx)
          mp);
      naive := !naive + Dsig_merkle.Merkle.Multiproof.naive_size_bytes tree idx;
      shared := !shared + Dsig_merkle.Merkle.Multiproof.size_bytes mp)
    by_tree;
  let cfg = Config.make (Config.hors_merklified ~k:16 ()) in
  Harness.print_table
    ~header:[ "proof encoding"; "proof bytes"; "whole signature B" ]
    [
      [ "independent (wire format)"; string_of_int !naive;
        string_of_int (Wire.size_bytes cfg) ];
      [ "shared-path multiproof"; string_of_int !shared;
        string_of_int (Wire.size_bytes cfg - !naive + !shared) ];
    ];
  Printf.printf "multiproofs trim HORS-M k=16 signatures by %.0f%% of their proof material
"
    (100.0 *. (1.0 -. (float_of_int !shared /. float_of_int !naive)))

let run () =
  Harness.section "Ablations of DSig's design choices";
  batching ();
  chain_caching ();
  bandwidth_reduction ();
  eddsa_cache ();
  mss_baseline ();
  eddsa_batch_verify ();
  multiproof_compression ()
