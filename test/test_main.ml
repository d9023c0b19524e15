let () =
  Alcotest.run "diva"
    [
      ("util", Test_util.suite);
      ("mesh", Test_mesh.suite);
      ("simnet", Test_simnet.suite);
      ("par", Test_par.suite);
      ("dsm", Test_dsm.suite);
      ("apps", Test_apps.suite);
      ("invariants", Test_invariants.suite);
      ("strategy-conformance", Test_strategy_conformance.suite);
      ("strategy-zoo", Test_strategy_zoo.suite);
      ("capacity-analytics", Test_capacity_analytics.suite);
      ("golden-strategies", Test_golden_strategies.suite);
      ("strategies", Test_strategies.suite);
      ("nbody-geom", Test_nbody_geom.suite);
      ("mesh-3d", Test_mesh3d.suite);
      ("edges", Test_edges.suite);
      ("harness", Test_harness.suite);
      ("obs", Test_obs.suite);
      ("prof", Test_prof.suite);
      ("analysis", Test_analysis.suite);
      ("streaming", Test_streaming.suite);
      ("workload", Test_workload.suite);
      ("faults", Test_faults.suite);
      ("service", Test_service.suite);
      ("run-spec", Test_run_spec.suite);
      ("cli", Test_cli.suite);
    ]
