(* Entry point: one alcotest section per library. *)

let () =
  Alcotest.run "qpwm"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("par", Test_par.suite);
      ("relational", Test_relational.suite);
      ("flatcore", Test_flatcore.suite);
      ("incremental", Test_incremental.suite);
      ("perf", Test_perf.suite);
      ("bounded", Test_bounded.suite);
      ("logic", Test_logic.suite);
      ("eval", Test_eval.suite);
      ("trees", Test_trees.suite);
      ("xml", Test_xml.suite);
      ("vc", Test_vc.suite);
      ("watermark", Test_watermark.suite);
      ("fingerprint", Test_fingerprint.suite);
      ("survivable", Test_survivable.suite);
      ("recovery", Test_recovery.suite);
      ("fuzz", Test_fuzz.suite);
      ("serve", Test_serve.suite);
      ("cliquewidth", Test_cliquewidth.suite);
      ("extensions", Test_extensions.suite);
      ("integration", Test_integration.suite);
      ("edges", Test_edges.suite);
      ("cli", Test_cli.suite);
      ("coverage", Test_coverage.suite);
      ("readers", Test_readers.suite);
      ("tree-prep", Test_tree_prepare.suite);
    ]
