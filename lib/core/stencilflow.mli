(** StencilFlow: end-to-end analysis, optimization, mapping and code
    generation for DAGs of stencil computations on spatial computing
    systems — an OCaml reproduction of de Fine Licht et al., CGO 2021.

    This umbrella module re-exports the public API of every layer and
    provides the end-to-end driver of Sec. VII: parse a program
    description, optionally apply domain-specific optimization (stencil
    fusion, when asked for with [~fuse:true]), run the buffering
    analyses, partition across devices, then either execute it on the
    cycle-level spatial simulator (validated against a sequential
    reference) or emit annotated OpenCL kernels.

    {2 Quick start}

    {[
      let program = Result.get_ok (Stencilflow.load_file "program.json") in
      let report = Stencilflow.run ~fuse:true program in
      Format.printf "%a@." Stencilflow.pp_report report
    ]} *)

(** {1 Re-exported layers} *)

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

(** {1 End-to-end driver (Sec. VII)} *)

val load_file : string -> (Program.t, Diag.t list) result
(** Parse and validate a JSON program description. Failures are located,
    coded diagnostics (see {!Diag} and docs/PIPELINE.md). *)

val load_string : string -> (Program.t, Diag.t list) result

type report = {
  program : Program.t;  (** After optimization. *)
  fusion : Fusion.report option;
  analysis : Delay_buffer.t;
  partition : Partition.t;
  simulation : (Engine.stats, Diag.t) result option;
  performance_model : float;  (** Modelled ops/s at the device clock. *)
  diagnostics : Diag.t list;
      (** Warnings (e.g. the [SF0503] single-device fallback) and
          non-fatal errors (simulation failures) from the pipeline. *)
}

val report_of_ctx : Ctx.t -> report
(** Assemble a report from a pass-manager context; raises
    [Invalid_argument] when the pipeline has not produced the program,
    analysis, partition and performance-model artifacts. *)

val run_result :
  ?device:Device.t ->
  ?fuse:bool ->
  ?validate:bool ->
  ?sim_config:Engine.config ->
  ?inputs:(string * Tensor.t) list ->
  Program.t ->
  (report * Pass_manager.trace, Diag.t list) result
(** The transparent pipeline of Sec. VII: a [simulate] {!Request.t} on
    [program], executed by {!Request.run} — the same passes the CLI and
    [serve] run. Optional stencil fusion ([fuse], default false, as on
    every entry point), buffering analysis, multi-device partitioning
    under the device resource model, the runtime model, and simulation
    validated against the sequential reference ([validate], default
    true) on [inputs] (default: seeded random data). [sim_config] is the
    base engine configuration. The trace carries per-pass wall-clock
    timings and artifact counters. *)

val run :
  ?device:Device.t ->
  ?fuse:bool ->
  ?validate:bool ->
  ?sim_config:Engine.config ->
  ?inputs:(string * Tensor.t) list ->
  Program.t ->
  report
(** {!run_result}, raising [Invalid_argument] on pipeline failure — the
    historical behaviour. Simulation failures do not raise; they are
    reported in {!report.simulation} and {!report.diagnostics}. *)

val codegen :
  ?partition:Partition.t -> Program.t -> (Opencl.artifact list, Diag.t list) result

val verify_interior :
  original:Program.t -> applied:string list -> Program.t -> (bool option, Diag.t) result
(** {!Fusion.interior_agrees} as a diagnostic: [Ok] with its verdict
    unless the interior results differ, which is an [SF0801] error (exit
    code 8) naming [original] and the [applied] passes. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable summary; the expected-cycle label reads [C = L + N/W]
    when the program is vectorized ([W > 1]). Warnings are appended. *)
