(* Test entry point: one alcotest run aggregating per-library suites. *)

let () =
  Alcotest.run "ildp_dbt"
    [
      ("machine", Test_machine.suite);
      ("alpha", Test_alpha.suite);
      ("semantics", Test_semantics.suite);
      ("accisa", Test_accisa.suite);
      ("core", Test_core.suite);
      ("translate", Test_translate.suite);
      ("random", Test_random.suite);
      ("uarch", Test_uarch.suite);
      ("minic", Test_minic.suite);
      ("workloads", Test_workloads.suite);
      ("harness", Test_harness.suite);
      ("pool", Test_pool.suite);
      ("service", Test_service.suite);
      ("oracle", Test_oracle.suite);
      ("stress", Test_stress.suite);
      ("exec_closure", Test_exec_closure.suite);
      ("obs", Test_obs.suite);
      ("persist", Test_persist.suite);
    ]
