(** Effective off-chip bandwidth model (paper, Sec. VIII-D, Fig. 16).

    Measured behaviour on the 520N: effective bandwidth scales linearly
    with the number of operands requested per cycle until the memory
    controller crossbar saturates — at 36.4 GB/s (47% of the 76.8 GB/s
    peak) when access points are scalar, and at 58.3 GB/s (76%) when each
    access point is vectorized (fewer, wider endpoints route better). A
    mild efficiency droop (the paper measures 0.94x at 12 vectorized
    access points) appears as saturation is approached. *)

val effective_bandwidth :
  Device.t -> operands_per_cycle:int -> element_bytes:int -> vectorized:bool -> float
(** Achievable bytes/s when the design requests the given number of
    operands per cycle. *)

val requested_bandwidth :
  Device.t -> operands_per_cycle:int -> element_bytes:int -> float
(** What the design would consume with no memory system limits. *)

val bytes_per_cycle_cap : Device.t -> vectorized:bool -> float
(** The saturation ceiling expressed per kernel cycle — the budget handed
    to the simulator's memory {!Sf_sim.Controller}. *)
