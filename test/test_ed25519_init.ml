(* The first Ed25519 use in a process, from several domains at once.
   Nothing in this executable touches Ed25519 before the domains start,
   so any table the library were to build on first use would be built
   under contention here: every domain waits on a barrier, then signs
   and verifies as its very first Ed25519 call. *)

open Dsig_ed25519

let domains = 4

let first_use_races () =
  let arrived = Atomic.make 0 in
  let worker i () =
    Atomic.incr arrived;
    while Atomic.get arrived < domains do
      Domain.cpu_relax ()
    done;
    match
      let sk = Eddsa.secret_of_seed (String.make 32 (Char.chr (65 + i))) in
      let msg = Printf.sprintf "first use %d" i in
      Eddsa.verify (Eddsa.public_key sk) msg (Eddsa.sign sk msg)
    with
    | ok -> if ok then Ok () else Error "verify rejected an honest signature"
    | exception e -> Error (Printexc.to_string e)
  in
  let results = List.map Domain.join (List.init domains (fun i -> Domain.spawn (worker i))) in
  List.iteri
    (fun i r -> Alcotest.(check (result unit string)) (Printf.sprintf "domain %d" i) (Ok ()) r)
    results

let () =
  Alcotest.run "ed25519-init"
    [ ("first use", [ Alcotest.test_case "domains race to sign and verify first" `Quick first_use_races ]) ]
