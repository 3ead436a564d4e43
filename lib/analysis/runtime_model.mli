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

val expected_seconds : ?config:Latency.config -> frequency_hz:float -> Sf_ir.Program.t -> float

val performance_ops_per_s :
  ?config:Latency.config -> frequency_hz:float -> Sf_ir.Program.t -> float
(** Total floating-point operations divided by expected runtime: the
    upper-bound line of Figs. 14-15. *)

val analyzed_ops_per_s : frequency_hz:float -> Sf_ir.Program.t -> Delay_buffer.t -> float
(** {!performance_ops_per_s} from an existing analysis of the program. *)

val initialization_fraction : ?config:Latency.config -> Sf_ir.Program.t -> float
(** L / C: the share of runtime spent initializing (0.7% for horizontal
    diffusion in the paper, Sec. IX). *)
