(** Expected-runtime model (paper, Sec. VIII-A, Eq. 1).

    A fully pipelined circuit processes N inputs in [C = L + I * N] cycles
    with initiation interval I = 1. N is the iteration-space size divided
    by the vector width; L is the program latency from the delay-buffer
    analysis. L is proportional to (D-1)-dimensional slices only, so it
    becomes negligible for large domains — but it is always included. *)

val analyzed_cycles : Sf_ir.Program.t -> Delay_buffer.t -> int
(** [L + cells/W] (ceiling division), with L from an existing
    delay-buffer analysis of the program. *)

val expected_cycles : ?config:Latency.config -> Sf_ir.Program.t -> int
(** {!analyzed_cycles} of a fresh analysis under [config]. *)

val analyzed_ops_per_s : frequency_hz:float -> Sf_ir.Program.t -> Delay_buffer.t -> float
(** Total floating-point operations divided by the expected runtime
    ({!analyzed_cycles} at [frequency_hz]), from an existing analysis
    of the program: the upper-bound line of Figs. 14-15. *)

val initialization_fraction : ?config:Latency.config -> Sf_ir.Program.t -> float
(** L / C: the share of runtime spent initializing (0.7% for horizontal
    diffusion in the paper, Sec. IX). *)
