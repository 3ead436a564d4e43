(** Mapping stencil programs to multiple devices (paper, Sec. III-B,
    Fig. 5).

    When a program exceeds one device's logic, on-chip memory, or off-chip
    bandwidth, the DAG is split across a chain of devices: stencil units
    are assigned to devices, inter-stencil edges crossing the cut become
    network (SMI) streams, and off-chip input fields are replicated into
    the DRAM of every device whose stencils read them. *)

type t = private {
  num_devices : int;
  device_of : (string * int) list;  (** Per-stencil device index. *)
  replicated_inputs : (string * int list) list;
      (** Input field -> devices holding a DRAM copy. *)
  cross_edges : ((string * string) * (int * int)) list;
      (** Dataflow edges that cross devices, with their endpoints. *)
  per_device_usage : Sf_models.Resource.usage list;
}
(** Built only by {!make}, so the replication and the cross edges are
    always those of the placement. *)

val make :
  Sf_ir.Program.checked ->
  device_of:(string * int) list ->
  per_device_usage:Sf_models.Resource.usage list ->
  (t, Sf_support.Diag.t) result
(** The partition of the checked program that places each stencil on
    its [device_of] device, over [List.length per_device_usage] devices:
    every input is replicated on the devices of its consumers, and every
    stencil-to-stencil edge between two devices is a cross edge. Fails
    ([SF0502]) when a stencil is not placed or is placed on a device out
    of range. *)

val greedy :
  ?ceiling:float ->
  ?max_devices:int ->
  device:Sf_models.Device.t ->
  Sf_ir.Program.checked ->
  (t, Sf_support.Diag.t) result
(** Topological greedy bin packing: fill the current device until the
    next stencil unit no longer fits, then start the next one. Inputs are
    replicated wherever consumed. Fails (diagnostic code [SF0501]) when
    one stencil alone exceeds a device or more than [max_devices]
    (default 8, the testbed size) are needed. *)

val single_device : Sf_analysis.Delay_buffer.t -> t
(** Everything on device 0 (no resource check), its usage
    {!Sf_models.Resource.of_analysis} of the given analysis. *)

val contiguous_checked : devices:int -> Sf_ir.Program.checked -> (t, Sf_support.Diag.t) result
(** Split the topological order into [devices] even contiguous chunks,
    without a resource check — for forcing a multi-device mapping (and
    thus the parallel simulator) on programs small enough that the
    resource-driven {!greedy} keeps them on one device. Uses
    [min devices stencils] devices; fails ([SF0501]) when
    [devices < 1]. *)

val contiguous : devices:int -> Sf_ir.Program.t -> (t, Sf_support.Diag.t) result
(** {!contiguous_checked} of {!Sf_ir.Program.check_exn}. *)

val placement_fn : t -> string -> int
(** Adapter for {!Sf_sim.Engine}'s [placement] argument. *)

val hop_demand_bytes_per_cycle : Sf_ir.Program.t -> t -> hop:int -> float
(** Bytes per cycle that must cross between devices [hop] and [hop + 1]
    when every stream moves one word per cycle: the sum over crossing
    edges of vector width times element size (streams spanning several
    hops load every hop in between — the chain topology of Sec. VIII-B). *)

val network_feasible : Sf_ir.Program.t -> t -> device:Sf_models.Device.t -> bool
(** Whether every hop's demand fits in the link bandwidth at one word per
    cycle (the constraint that capped distributed vectorization in
    Sec. VIII-C). *)

val pp : Format.formatter -> t -> unit
