(* The instrumented pass manager: per-pass timing entries, invariant
   checking, the partition fallback warning, and artifact dumps. *)
module Diag = Sf_support.Diag
module Ctx = Sf_toolchain.Ctx
module Pass_manager = Sf_toolchain.Pass_manager
module Passes = Sf_toolchain.Passes
module Device = Sf_models.Device

let names trace = List.map (fun (t : Pass_manager.timing) -> t.Pass_manager.pass) trace

(* Property: one timing entry per executed pass, in order, whether or
   not the pipeline completes. Randomize the pipeline shape and the
   index of an injected failing pass. *)
let fail_pass =
  Pass_manager.make_pass ~name:"explode" ~description:"always fails" ~kind:Pass_manager.Other
    (fun _ -> Error [ Diag.error ~code:Diag.Code.internal "boom" ])

let timing_per_pass =
  QCheck.Test.make ~count:50 ~name:"one timing entry per executed pass"
    QCheck.(pair (int_bound 3) (option (int_bound 4)))
    (fun (extra_noops, fail_at) ->
      let noop i =
        Pass_manager.make_pass
          ~name:(Printf.sprintf "noop%d" i)
          ~description:"identity" ~kind:Pass_manager.Other
          (fun ctx -> Ok ctx)
      in
      let base =
        Passes.use_program (Fixtures.diamond ())
        :: List.init extra_noops noop
        @ [ Passes.delay_buffers; Passes.partition ]
      in
      let passes =
        match fail_at with
        | None -> base
        | Some i ->
            let i = min i (List.length base) in
            List.filteri (fun j _ -> j < i) base
            @ (fail_pass :: List.filteri (fun j _ -> j >= i) base)
      in
      let expected_names = List.map (fun (p : Pass_manager.pass) -> p.Pass_manager.name) passes in
      match Pass_manager.run passes (Ctx.create ()) with
      | Ok (_, trace) ->
          fail_at <> None = false
          && names trace = expected_names
          && List.for_all (fun (t : Pass_manager.timing) -> t.Pass_manager.ok) trace
      | Error (ds, trace) ->
          (* The trace covers exactly the executed prefix, the failing
             pass included and marked. *)
          let executed = (match fail_at with Some i -> min i (List.length base) | None -> -1) + 1 in
          Diag.has_errors ds
          && List.length trace = executed
          && names trace = List.filteri (fun j _ -> j < executed) expected_names
          && (match List.rev trace with
             | last :: prefix ->
                 (not last.Pass_manager.ok)
                 && List.for_all (fun (t : Pass_manager.timing) -> t.Pass_manager.ok) prefix
             | [] -> false))

let test_counters_recorded () =
  match
    Pass_manager.run
      [ Passes.use_program (Fixtures.diamond ()); Passes.delay_buffers ]
      (Ctx.create ())
  with
  | Error _ -> Alcotest.fail "pipeline failed"
  | Ok (_, trace) ->
      let t = List.nth trace 1 in
      Alcotest.(check (list (pair string int)))
        "delay analysis adds counters"
        [ ("stencils", 3); ("edges", 4); ("delay-words", 14) ]
        (Lazy.force t.Pass_manager.counters_after)

let test_exception_becomes_internal_diag () =
  let raiser =
    { fail_pass with Pass_manager.name = "raiser"; run = (fun _ -> failwith "kaboom") }
  in
  match Pass_manager.run [ raiser ] (Ctx.create ()) with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error (d :: _, trace) ->
      Alcotest.(check string) "code" Diag.Code.internal d.Diag.code;
      Alcotest.(check int) "trace covers the raiser" 1 (List.length trace)
  | Error ([], _) -> Alcotest.fail "no diagnostics"

let test_invariant_checker_rejects () =
  (* A pass that installs a program referencing an undeclared field must
     be stopped by the post-pass validation invariant. *)
  let open Sf_ir in
  let broken =
    let valid = Fixtures.diamond () in
    {
      valid with
      Program.stencils =
        List.map
          (fun (s : Stencil.t) ->
            if s.Stencil.name = "c" then
              { s with Stencil.body = { Expr.lets = []; result = Expr.Access { field = "ghost"; offsets = [ 0; 0 ] } } }
            else s)
          valid.Program.stencils;
    }
  in
  let installer =
    {
      fail_pass with
      Pass_manager.name = "install-broken";
      run = (fun ctx -> Ok (Ctx.with_program ctx broken));
    }
  in
  match Pass_manager.run [ installer ] (Ctx.create ()) with
  | Ok _ -> Alcotest.fail "invariant should have failed"
  | Error (d :: _, _) -> Alcotest.(check string) "code" Diag.Code.validation d.Diag.code
  | Error ([], _) -> Alcotest.fail "no diagnostics"

let test_partition_fallback_warning () =
  (* On a device too small for even one stencil, greedy partitioning
     fails and the pass must fall back to a single device with exactly
     one SF0503 warning carrying the reason. The fallback charges the
     delay buffers of the request's analysis: under a latency table that
     deepens them, its usage is that analysis's, not the default
     table's. *)
  let tiny = { Device.stratix10 with Device.alm = 1; ff = 1; m20k = 1; dsp = 1 } in
  let d = Sf_analysis.Latency.default in
  let scaled = { d with Sf_analysis.Latency.add = 1000 * d.add; mul = 1000 * d.mul } in
  let m20k latency =
    (Sf_models.Resource.of_analysis
       (Sf_analysis.Delay_buffer.analyze ~config:latency (Fixtures.diamond ())))
      .Sf_models.Resource.m20k
  in
  Alcotest.(check bool) "the scaled table deepens the delay buffers" true
    (m20k scaled > m20k d);
  List.iter
    (fun latency ->
      match
        Pass_manager.run
          [ Passes.use_program (Fixtures.diamond ()); Passes.delay_buffers; Passes.partition ]
          (Ctx.create ~device:tiny ~sim_config:{ Sf_sim.Engine.Config.default with latency } ())
      with
      | Error (ds, _) -> Alcotest.fail (Diag.to_string (List.hd ds))
      | Ok (ctx, _) ->
          (match ctx.Ctx.partition with
          | Some pt ->
              Alcotest.(check int) "single device" 1 pt.Sf_mapping.Partition.num_devices;
              Alcotest.(check bool) "usage of the request's analysis" true
                (pt.Sf_mapping.Partition.per_device_usage
                = [ Sf_models.Resource.of_analysis (Option.get ctx.Ctx.analysis) ])
          | None -> Alcotest.fail "no partition");
          let fallbacks =
            List.filter
              (fun (d : Diag.t) -> d.Diag.code = Diag.Code.partition_fallback)
              ctx.Ctx.diags
          in
          (match fallbacks with
          | [ d ] ->
              Alcotest.(check bool) "is a warning" false (Diag.is_error d);
              Alcotest.(check bool) "carries the reason" true
                (List.exists
                   (fun n -> n = "stencil a alone exceeds device resources")
                   d.Diag.notes)
          | ds ->
              Alcotest.fail
                (Printf.sprintf "expected 1 fallback warning, got %d" (List.length ds))))
    [ d; scaled ]

let test_partition_fits_quietly () =
  match
    Pass_manager.run
      [ Passes.use_program (Fixtures.diamond ()); Passes.delay_buffers; Passes.partition ]
      (Ctx.create ())
  with
  | Error (ds, _) -> Alcotest.fail (Diag.to_string (List.hd ds))
  | Ok (ctx, _) ->
      Alcotest.(check int) "no warnings on the default device" 0 (List.length ctx.Ctx.diags)

let test_dump_hook_layout () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "sf-toolchain-dump-test" in
  let hooks = Passes.dump_hook ~dir in
  (match
     Pass_manager.run ~hooks
       [ Passes.use_program (Fixtures.diamond ()); Passes.delay_buffers ]
       (Ctx.create ())
   with
  | Error (ds, _) -> Alcotest.fail (Diag.to_string (List.hd ds))
  | Ok _ -> ());
  let expect path = Alcotest.(check bool) path true (Sys.file_exists (Filename.concat dir path)) in
  expect "00-use-program/program.json";
  expect "01-delay-buffers/program.json";
  expect "01-delay-buffers/analysis.txt"

let test_with_program_invalidates () =
  match
    Pass_manager.run
      [ Passes.use_program (Fixtures.diamond ()); Passes.delay_buffers ]
      (Ctx.create ())
  with
  | Error _ -> Alcotest.fail "pipeline failed"
  | Ok (ctx, _) ->
      Alcotest.(check bool) "analysis present" true (ctx.Ctx.analysis <> None);
      let ctx' = Ctx.with_program ctx (Fixtures.laplace2d ()) in
      Alcotest.(check bool) "analysis invalidated" true (ctx'.Ctx.analysis = None)

(* A pass that installs a new analysis without declaring the write gets
   no kept digest for it: the value fails the identity check, is digested
   afresh, and the performance model downstream is keyed on the new
   analysis — a cache warmed by the honest pipeline does not replay. *)
let test_undeclared_write_gets_fresh_digest () =
  let module Cache = Sf_toolchain.Cache in
  let sneaky =
    Pass_manager.make_pass ~name:"sneaky" ~description:"rewrites the analysis undeclared"
      ~kind:Pass_manager.Other (fun ctx ->
        match ctx.Ctx.analysis with
        | Some a ->
            let a =
              { a with Sf_analysis.Delay_buffer.latency_cycles = a.Sf_analysis.Delay_buffer.latency_cycles + 1000 }
            in
            Ok { ctx with Ctx.analysis = Some a }
        | None -> Error [ Diag.error ~code:Diag.Code.internal "no analysis" ])
  in
  let analysis_fp fp ctx = fp ctx (Ctx.P Ctx.analysis_slot) in
  let seen = ref [] in
  let hooks =
    { Pass_manager.no_hooks with dump = Some (fun ~index:_ ~pass ctx -> seen := (pass, ctx) :: !seen) }
  in
  let cache = Cache.create () in
  let honest = [ Passes.use_program (Fixtures.diamond ()); Passes.delay_buffers ] in
  let run ?cache passes =
    match Pass_manager.run ?cache ~hooks passes (Ctx.create ()) with
    | Ok (ctx, trace) -> (ctx, trace)
    | Error (ds, _) -> Alcotest.fail (Diag.to_string (List.hd ds))
  in
  let warm, _ = run ~cache (honest @ [ Passes.performance_model ]) in
  let ctx, trace = run ~cache (honest @ [ sneaky; Passes.performance_model ]) in
  let after_sneaky = List.assoc "sneaky" !seen in
  Alcotest.(check bool) "kept digest equals the recomputed one" true
    (analysis_fp Ctx.kept_fingerprint after_sneaky = analysis_fp Ctx.slot_fingerprint after_sneaky);
  Alcotest.(check bool) "the new analysis digests differently" true
    (analysis_fp Ctx.kept_fingerprint after_sneaky <> analysis_fp Ctx.kept_fingerprint warm);
  let model = List.find (fun (t : Pass_manager.timing) -> t.Pass_manager.pass = "performance-model") trace in
  Alcotest.(check bool) "performance model re-executed" false model.Pass_manager.cached;
  let uncached, _ = run (honest @ [ sneaky; Passes.performance_model ]) in
  Alcotest.(check bool) "model of the new analysis" true
    (ctx.Ctx.performance_model = uncached.Ctx.performance_model
    && ctx.Ctx.performance_model <> warm.Ctx.performance_model)

let suite =
  [
    QCheck_alcotest.to_alcotest timing_per_pass;
    Alcotest.test_case "artifact counters recorded" `Quick test_counters_recorded;
    Alcotest.test_case "pass exceptions become SF0901" `Quick test_exception_becomes_internal_diag;
    Alcotest.test_case "post-pass validation invariant" `Quick test_invariant_checker_rejects;
    Alcotest.test_case "partition fallback warns once (SF0503)" `Quick test_partition_fallback_warning;
    Alcotest.test_case "fitting partition stays quiet" `Quick test_partition_fits_quietly;
    Alcotest.test_case "dump hook directory layout" `Quick test_dump_hook_layout;
    Alcotest.test_case "with_program invalidates derived artifacts" `Quick test_with_program_invalidates;
    Alcotest.test_case "an undeclared write is digested afresh" `Quick
      test_undeclared_write_gets_fresh_digest;
  ]
