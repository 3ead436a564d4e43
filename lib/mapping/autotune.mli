(** Vectorization-width selection (paper, Sec. IV-C and IX-B).

    Choosing W is the main tuning knob StencilFlow exposes: too narrow
    wastes bandwidth and logic efficiency, too wide exceeds the memory
    system, the network (for multi-device programs), or the device's
    resources. The paper picks W = 8 for the bandwidth-bound horizontal
    diffusion (saturating the 58.3 GB/s effective bandwidth) and W = 16
    for the infinite-bandwidth variant; this module automates that
    reasoning using the calibrated device models. *)

type evaluation = {
  vector_width : int;
  modeled_ops_per_s : float;
  bandwidth_bound : bool;  (** Memory demand exceeds the effective cap. *)
  fits : bool;  (** Resource estimate within the device ceiling. *)
  network_ok : bool;  (** Cross-device streams sustainable (if any). *)
}

val evaluate :
  ?devices:int -> device:Sf_models.Device.t -> Sf_ir.Program.t -> int -> evaluation
(** Model one candidate width: throughput = W cells/cycle scaled down by
    the bandwidth ratio when demand exceeds the effective cap, zeroed
    when the design does not fit. *)

val choose :
  ?devices:int ->
  ?max_width:int ->
  device:Sf_models.Device.t ->
  Sf_ir.Program.t ->
  evaluation * evaluation list
(** Evaluate every legal power-of-two width up to [max_width] (default
    16), in width order, and return the best feasible one plus the full
    sweep. Each width is one closed-form model evaluation. Raises
    [Invalid_argument] when no width fits. *)
