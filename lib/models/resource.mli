(** Resource-usage estimation for generated stencil architectures.

    The paper evaluates real place-and-route results (Table I); without a
    synthesis toolchain we estimate usage from the program analysis with
    coefficients calibrated against Table I's kernels (see DESIGN.md and
    the [tab1] bench). The estimates drive the multi-device partitioner
    (Sec. III-B) and the chain-scaling benchmarks (Figs. 14-15), where
    what matters is {e how many stencil stages fit on one device}. *)

type usage = { alm : int; ff : int; m20k : int; dsp : int }

val zero : usage
val add : usage -> usage -> usage
val scale : int -> usage -> usage

val of_unit : Sf_ir.Program.checked -> Sf_ir.Stencil.t -> usage
(** Estimate one stencil unit of the checked program: compute logic
    scaled by the vector width, per-lane stream/predication overhead,
    and M20K blocks for its internal buffers, which come from
    {!Sf_ir.Program.Checked.accesses}, so the body is not walked again. *)

val of_checked : Sf_ir.Program.checked -> usage
(** All stencil units plus delay-buffer memory and per-off-chip-access
    infrastructure (prefetchers/writers, the global memory ring), from
    the facts of the program's check: the delay analysis is
    {!Sf_analysis.Delay_buffer.of_checked} and each unit's buffers come
    from {!Sf_ir.Program.Checked.accesses}, so no body is walked again. *)

val of_program : Sf_ir.Program.t -> usage
(** [of_checked] of the checked program. Raises [Invalid_argument] if
    the program does not validate. *)

val utilization : Device.t -> usage -> float * float * float * float
(** Fractions of (alm, ff, m20k, dsp) consumed. *)

val fits : ?ceiling:float -> Device.t -> usage -> bool
(** Whether the design routes: every resource below [ceiling] (default
    0.85; high utilizations fail timing in practice — the paper's largest
    design uses 82% ALMs). *)

val max_chain_length : ?ceiling:float -> Device.t -> per_stage:usage -> fixed:usage -> int
(** Largest n with [fixed + n * per_stage] fitting — how many copies of an
    iterative stencil a device sustains (Sec. VIII-C). *)

val pp : Format.formatter -> usage -> unit
