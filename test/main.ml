let () =
  Alcotest.run "stencilflow"
    [
      ("support", Test_support.suite);
      ("executor", Test_executor.suite);
      ("spsc", Test_spsc.suite);
      ("diag", Test_diag.suite);
      ("toolchain", Test_toolchain.suite);
      ("digest", Test_digest.suite);
      ("store", Test_store.suite);
      ("service", Test_service.suite);
      ("request", Test_request.suite);
      ("json", Test_json.suite);
      ("dgraph", Test_dgraph.suite);
      ("expr", Test_expr.suite);
      ("parser", Test_parser.suite);
      ("program", Test_program.suite);
      ("analysis", Test_analysis.suite);
      ("reference", Test_reference.suite);
      ("sim_primitives", Test_sim_primitives.suite);
      ("memory_units", Test_memory_units.suite);
      ("sim", Test_sim.suite);
      ("sim_parity", Test_sim_parity.suite);
      ("validate", Test_validate.suite);
      ("sdfg", Test_sdfg.suite);
      ("fusion", Test_fusion.suite);
      ("models", Test_models.suite);
      ("mapping", Test_mapping.suite);
      ("codegen", Test_codegen.suite);
      ("codegen_exec", Test_codegen_exec.suite);
      ("kernels", Test_kernels.suite);
      ("opt", Test_opt.suite);
      ("tiling", Test_tiling.suite);
      ("autotune", Test_autotune.suite);
      ("examples", Test_examples.suite);
      ("timeloop", Test_timeloop.suite);
      ("swe", Test_swe.suite);
      (* The suite keeps the name it had when it also tested the removed
         load-balanced partitioner, so the report test keeps its name. *)
      ("partition_balanced", Test_report.suite);
      ("random_programs", Test_random_programs.suite);
      ("pipeline", Test_pipeline.suite);
      ("compile", Test_compile.suite);
      ("wave", Test_wave.suite);
      ("telemetry", Test_telemetry.suite);
      ("parallel", Test_parallel.suite);
      ("faults", Test_faults.suite);
    ]
