module Json = Sf_support.Json
module Dgraph = Sf_support.Dgraph
module Util = Sf_support.Util
module Dtype = Sf_ir.Dtype
module Boundary = Sf_ir.Boundary
module Expr = Sf_ir.Expr
module Dag = Sf_ir.Dag
module Field = Sf_ir.Field
module Stencil = Sf_ir.Stencil
module Program = Sf_ir.Program
module Builder = Sf_ir.Builder
module Lexer = Sf_frontend.Lexer
module Parser = Sf_frontend.Parser
module Program_json = Sf_frontend.Program_json
module Internal_buffer = Sf_analysis.Internal_buffer
module Delay_buffer = Sf_analysis.Delay_buffer
module Latency = Sf_analysis.Latency
module Op_count = Sf_analysis.Op_count
module Roofline = Sf_analysis.Roofline
module Runtime_model = Sf_analysis.Runtime_model
module Vectorize = Sf_analysis.Vectorize
module Influence = Sf_analysis.Influence
module Tensor = Sf_reference.Tensor
module Interp = Sf_reference.Interp
module Compile = Sf_reference.Compile
module Engine = Sf_sim.Engine
module Parallel = Sf_sim.Parallel
module Fault_plan = Sf_sim.Fault_plan
module Faults = Sf_sim.Faults
module Telemetry = Sf_sim.Telemetry
module Timeloop = Sf_sim.Timeloop
module Sdfg = Sf_sdfg.Sdfg
module Fusion = Sf_sdfg.Fusion
module Opt = Sf_sdfg.Opt
module Partition = Sf_mapping.Partition
module Tiling = Sf_mapping.Tiling
module Autotune = Sf_mapping.Autotune
module Smi = Sf_smi.Smi
module Opencl = Sf_codegen.Opencl
module Report = Sf_codegen.Report
module Vitis = Sf_codegen.Vitis
module Dot = Sf_codegen.Dot
module Device = Sf_models.Device
module Resource = Sf_models.Resource
module Memory_model = Sf_models.Memory_model
module Loadstore = Sf_models.Loadstore
module Literature = Sf_models.Literature
module Silicon = Sf_models.Silicon
module Iterative = Sf_kernels.Iterative
module Hdiff = Sf_kernels.Hdiff
module Swe = Sf_kernels.Swe
module Wave = Sf_kernels.Wave
module Diag = Sf_support.Diag
module Executor = Sf_support.Executor
module Ctx = Sf_toolchain.Ctx
module Pass_manager = Sf_toolchain.Pass_manager
module Passes = Sf_toolchain.Passes
module Request = Sf_toolchain.Request
module Cache = Sf_toolchain.Cache
module Service = Sf_toolchain.Service
module Chaos = Sf_toolchain.Chaos
module Fingerprint = Sf_support.Fingerprint
module Store = Sf_support.Store

let load_file = Program_json.of_file
let load_string source = Program_json.of_string source

type report = {
  program : Program.t;
  fusion : Fusion.report option;
  analysis : Delay_buffer.t;
  partition : Partition.t;
  simulation : (Engine.stats, Diag.t) result option;
  performance_model : float;
  diagnostics : Diag.t list;
}

let report_of_ctx (ctx : Ctx.t) =
  match (ctx.Ctx.program, ctx.Ctx.analysis, ctx.Ctx.partition, ctx.Ctx.performance_model) with
  | Some checked, Some analysis, Some partition, Some performance_model ->
      {
        program = Program.Checked.program checked;
        fusion = ctx.Ctx.fusion;
        analysis;
        partition;
        simulation = ctx.Ctx.simulation;
        performance_model;
        diagnostics = ctx.Ctx.diags;
      }
  | _ ->
      invalid_arg "Stencilflow.report_of_ctx: pipeline did not produce all report artifacts"

let run_result ?device ?(fuse = false) ?(validate = true) ?sim_config ?inputs program =
  let options = { Request.default_options with fuse; validate } in
  let request = Request.make ~options `Simulate (Request.Program program) in
  match Request.run ?config:sim_config ?device ?inputs request with
  | Ok (ctx, trace) -> Ok (report_of_ctx ctx, trace)
  | Error (ds, _trace) -> Error ds

let run ?device ?fuse ?validate ?sim_config ?inputs program =
  match run_result ?device ?fuse ?validate ?sim_config ?inputs program with
  | Ok (report, _trace) -> report
  | Error ds -> invalid_arg (String.concat "; " (List.map Diag.to_string ds))

let codegen ?partition program = Opencl.generate ?partition program

let verify_interior ~original ~applied p =
  match Fusion.interior_agrees ~original p with
  | Some false ->
      Error
        (Diag.errorf ~code:Diag.Code.pass_verification "%s changed interior results of %s"
           (String.concat ", " applied) original.Program.name)
  | verdict -> Ok verdict

let pp_report fmt r =
  Format.fprintf fmt "program %s: %d stencil(s) over %d device(s)@." r.program.Program.name
    (List.length r.program.Program.stencils)
    r.partition.Partition.num_devices;
  (match r.fusion with
  | Some f when f.Fusion.fused_pairs <> [] ->
      Format.fprintf fmt "  fusion: %d -> %d stencils@." f.Fusion.stencils_before
        f.Fusion.stencils_after
  | Some _ | None -> ());
  let w = r.program.Program.vector_width in
  Format.fprintf fmt "  latency L = %d cycles, expected C = %s = %d cycles@."
    r.analysis.Delay_buffer.latency_cycles
    (if w > 1 then "L + N/W" else "L + N")
    (Runtime_model.analyzed_cycles r.program r.analysis);
  Format.fprintf fmt "  modelled performance: %s@."
    (Util.human_rate r.performance_model);
  (match r.simulation with
  | None -> ()
  | Some (Error d) -> Format.fprintf fmt "  simulation FAILED: %s@." (Diag.to_string d)
  | Some (Ok stats) ->
      Format.fprintf fmt "  simulated %d cycles (model: %d), %d B read, %d B written@."
        stats.Engine.cycles stats.Engine.predicted_cycles stats.Engine.bytes_read
        stats.Engine.bytes_written;
      let f = stats.Engine.faults in
      if f.Fault_plan.injected_events > 0 then
        Format.fprintf fmt "  injected faults: %d event(s), %d perturbed component-cycle(s)@."
          f.Fault_plan.injected_events f.Fault_plan.injected_stall_cycles);
  List.iter
    (fun d ->
      if not (Diag.is_error d) then Format.fprintf fmt "  %s@." (Diag.to_string d))
    r.diagnostics
