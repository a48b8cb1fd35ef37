let () =
  Alcotest.run "dsig-repro"
    (Test_util.suites @ Test_bigint.suites @ Test_hashes.suites @ Test_ed25519.suites @ Test_ed25519_diff.suites
   @ Test_merkle.suites @ Test_hbss.suites @ Test_core.suites @ Test_simnet.suites
   @ Test_apps.suites @ Test_bft.suites @ Test_ext.suites @ Test_model.suites @ Test_servers.suites @ Test_runtime.suites @ Test_edge.suites @ Test_tcpnet.suites @ Test_matrix.suites @ Test_more.suites @ Test_faultmatrix.suites @ Test_lifecycle.suites
   @ Test_store.suites @ Test_keylife.suites @ Test_sign_path.suites)
