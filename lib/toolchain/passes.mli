(** The standard pass catalogue over {!Ctx.t}, mirroring the paper's
    toolflow (Sec. VII): frontend, domain-specific optimization,
    buffering analysis, device mapping, code generation and cycle-level
    simulation. {!Request.passes} composes them into the driver's
    pipelines; tests and tools may compose them freely. *)

val install :
  ?fail:(string list -> Sf_support.Diag.t list) -> Ctx.t -> Sf_ir.Program.t ->
  (Ctx.t, Sf_support.Diag.t list) result
(** Check a new program version once and install the check; [fail] maps
    the check's errors (default: one [SF0301] each). *)

val load_file : string -> Pass_manager.pass
(** Parse and check a JSON program description from disk, installing the
    decoder's check. Failures carry located diagnostics ([SF0201]/[SF0202]/
    [SF0203]/[SF0204], [SF0301], and [SF0101]/[SF0102] from DSL bodies). *)

val load_string : string -> Pass_manager.pass
(** Like {!load_file} from an in-memory JSON string. *)

val use_program : Sf_ir.Program.t -> Pass_manager.pass
(** Install an already-constructed program ({!install}). *)

val fuse : ?max_body_size:int -> unit -> Pass_manager.pass
(** Aggressive stencil fusion (Sec. V-B); records the {!Ctx.t.fusion}
    report. *)

val optimize : ?min_size:int -> unit -> Pass_manager.pass
(** Constant folding + common subexpression elimination. *)

val vectorize : int -> Pass_manager.pass
(** Set the vectorization width (Sec. IV-C); an illegal one is [SF0302]. *)

val delay_buffers : Pass_manager.pass
(** The delay-buffer/latency analysis (Sec. IV-B) of the program slot's
    check under the context's simulator latency configuration. *)

val partition : Pass_manager.pass
(** Greedy multi-device partitioning under the context's device model.
    When the program cannot be partitioned, falls back to a single
    oversubscribed device and records an [SF0503] warning carrying the
    partitioner's reason — the fallback is never silent. *)

val partition_into : int -> Pass_manager.pass
(** Force a mapping onto exactly N devices via
    {!Sf_mapping.Partition.contiguous}, ignoring the resource model —
    the [--devices N] CLI option, for exercising multi-device simulation
    on programs the greedy partitioner keeps on one device. Fails
    ([SF0501]) when [N < 1]. *)

val performance_model : Pass_manager.pass
(** The Eq. 1 runtime model evaluated at the device clock. *)

val simulate : ?validate:bool -> seed:int -> unit -> Pass_manager.pass
(** Cycle-level simulation on the context's partition placement, on the
    context's inputs (or random inputs from [seed] when absent),
    validated against the sequential reference when [validate] (default
    true). Failures (deadlock [SF0701], mismatch [SF0702], timeout
    [SF0703]) are recorded as error diagnostics in {!Ctx.t.diags} and in
    {!Ctx.t.simulation} without aborting the pipeline, so reports and
    exit codes can still be produced from the remaining artifacts. *)

val codegen_opencl : Pass_manager.pass
(** Emit the Intel-FPGA-style OpenCL kernels and host program for the
    context's partition ([SF0601] on lowering failure). *)

val codegen_vitis : Pass_manager.pass
(** Emit the Xilinx-style Vitis HLS C++ source (single device). *)

val dump_hook : dir:string -> Pass_manager.hooks
(** Hooks whose [dump] writes every current artifact to
    [dir/NN-passname/<artifact>] after each pass — the [--dump-ir]
    implementation. Creates directories as needed. *)
