(** Code generation to Intel-FPGA-style annotated OpenCL (paper, Sec. VI).

    The program is checked once, lowered under its device placement to an
    SDFG and expanded ({!Sf_sdfg.Sdfg}); this module prints the result
    and derives no schedule of its own. One source file is emitted per
    device. Each pipeline scope becomes an [autorun] kernel with the
    Fig. 12 structure: a fully unrolled shift phase over each shift
    register, an update phase reading every register's stream from its
    fill step on, and a compute phase with boundary predication and a
    guarded output write, for the scope's init cycles and word count.
    Channels carry the analysed depths of the scope's ports; ports between
    devices are printed as SMI push/pop calls instead of channel
    operations (Sec. VI-B). Dedicated reader (prefetcher) and writer
    kernels move data between DRAM and streams.

    The output is not synthesized in this reproduction (no vendor
    toolchain); its structure is verified by tests and it documents
    exactly what the lowering decides: channel depths, tap offsets,
    predication, initialization and drain scheduling. *)

type artifact = {
  device : int;
  filename : string;
  source : string;
}

val lower :
  ?partition:Sf_mapping.Partition.t ->
  Sf_ir.Program.t ->
  (Sf_sdfg.Sdfg.t, Sf_support.Diag.t list) result
(** Check the program, lower it ({!Sf_sdfg.Sdfg.of_checked}) and expand
    it: the SDFG both backends print. Validation problems surface as
    [SF0301] diagnostics, lowering failures (a stencil the partition does
    not place) as [SF0601]. *)

val lower_analysis :
  ?partition:Sf_mapping.Partition.t ->
  Sf_analysis.Delay_buffer.t ->
  (Sf_sdfg.Sdfg.t, Sf_support.Diag.t list) result
(** {!lower} of the program an analysis was derived from, without a second
    check or analysis. *)

val kernels : Sf_sdfg.Sdfg.t -> artifact list
(** Kernel source per device of an expanded SDFG. *)

val host : Sf_sdfg.Sdfg.t -> string
(** Host-side C-style pseudo code for an expanded SDFG: buffer
    allocation, replication of inputs to each device that reads them,
    kernel launch, and result copy-back. *)

val generate :
  ?partition:Sf_mapping.Partition.t ->
  Sf_ir.Program.t ->
  (artifact list, Sf_support.Diag.t list) result
(** {!kernels} of {!lower}: one artifact per device (a single one when
    unpartitioned). *)

val host_source :
  ?partition:Sf_mapping.Partition.t ->
  Sf_ir.Program.t ->
  (string, Sf_support.Diag.t list) result
(** {!host} of {!lower}. *)

val emit_compute : Buffer.t -> Sf_ir.Program.t -> Sf_sdfg.Sdfg.pipeline -> result:string -> unit
(** The compute phase for lane [v] of [cell], which both backends emit
    alike: the multi-index, the lets and [const float result], reading
    the pipeline's shift-register taps (predicated at the boundary) and
    the prefetch arrays of its lower-dimensional inputs. *)

val float_literal : float -> string
(** C float literal rendering shared by the backends. *)

val expression_to_c :
  access:(field:string -> offsets:int list -> string) -> Sf_ir.Expr.t -> string
(** Render an expression as C, delegating access rendering to the caller
    (exposed for tests). *)

val scheduled_body : Sf_ir.Expr.body -> Sf_ir.Expr.body
(** The body as both backends emit it: original let names preserved, and
    every structurally shared non-leaf DAG node hoisted into a [__tN]
    local, so generated kernels compute each shared value once instead of
    relying on the vendor compiler's CSE. Shared by both backends. *)
