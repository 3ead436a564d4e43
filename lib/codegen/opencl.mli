(** Code generation to Intel-FPGA-style annotated OpenCL (paper, Sec. VI).

    One source file is emitted per device. Each stencil becomes an
    [autorun] kernel containing the Fig. 12 structure: a fully unrolled
    shift phase over the field's shift register, an update phase reading
    the input channels, and a compute phase with boundary predication and
    a guarded output write. Channels carry the delay-buffer depths from
    the analysis; edges crossing devices are emitted as SMI push/pop
    calls instead of channel operations (Sec. VI-B). Dedicated reader
    (prefetcher) and writer kernels move data between DRAM and streams.

    The output is not synthesized in this reproduction (no vendor
    toolchain); its structure is verified by tests and it documents
    exactly what the lowering decides: channel depths, tap offsets,
    predication, initialization and drain scheduling. *)

type artifact = {
  device : int;
  filename : string;
  source : string;
}

val generate :
  ?partition:Sf_mapping.Partition.t ->
  Sf_ir.Program.t ->
  (artifact list, Sf_support.Diag.t list) result
(** Kernel source per device (a single artifact when unpartitioned).
    Validation problems surface as [SF0301] diagnostics; internal
    lowering failures as [SF0601]. *)

val host_source :
  ?partition:Sf_mapping.Partition.t ->
  Sf_ir.Program.t ->
  (string, Sf_support.Diag.t list) result
(** Host-side C-style pseudo code: buffer allocation, replication of
    inputs to each device, kernel launch, and result copy-back. *)

val checked :
  (Sf_ir.Program.checked -> 'a) -> Sf_ir.Program.t -> ('a, Sf_support.Diag.t list) result
(** [checked lower p]: {!Sf_ir.Program.check} [p], then [lower] it.
    Validation problems surface as [SF0301], lowering failures as
    [SF0601]. *)

val emit_compute :
  Buffer.t ->
  Sf_ir.Program.checked ->
  Sf_analysis.Internal_buffer.t list ->
  Sf_ir.Stencil.t ->
  result:string ->
  unit
(** The compute phase for lane [v] of [cell], which both backends emit
    alike: the multi-index, the lets and [const float result], reading
    the stencil's shift-register taps (predicated at the boundary) and
    the prefetch arrays of lower-dimensional inputs. *)

val ident : string -> string
(** {!Sf_ir.Ident.of_name}: a program name as both backends spell it
    inside identifiers. *)

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
