(** Adversarial deadlock-freedom validation (paper, Sec. IV-B).

    The analysed delay-buffer depths are supposed to make the dataflow
    graph latency-insensitive: any timing, same outputs, no deadlock. A
    {!campaign} samples that claim with N seeded fault schedules per
    program and checks every run's outputs are bit-identical to the
    unperturbed baseline; {!probe_tightest} aims an under-provisioning
    experiment at the tightest analysed edge, where a deadlock
    ([SF0701]) is the expected — and wanted — outcome; {!shrink}
    reduces a failing plan to a minimal counterexample. *)

type plan = Fault_plan.t

(** One seeded schedule's verdict: completed with outputs bit-identical
    to the unperturbed baseline (payload: cycles), or failed with the
    engine's structured diagnostic ([SF0701]/[SF0703], including
    fault-attribution notes) or an [SF0702] mismatch. *)
type run_outcome = Identical of int | Failed of Sf_support.Diag.t

type run_record = {
  seed : int;
  outcome : run_outcome;
  faults : Fault_plan.summary;  (** What the injector did on this run. *)
}

type report = { baseline_cycles : int; runs : run_record list }

val passed : report -> bool

val failures : report -> (run_record * Sf_support.Diag.t) list

val campaign_prepared :
  ?config:Engine.config ->
  ?placement:(string -> int) ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  ?plan:plan ->
  ?schedules:int ->
  ?jobs:int ->
  Engine.prepared ->
  (report, Sf_support.Diag.t) result
(** Run the unperturbed baseline (any fault config in [config] is
    stripped for it), then [schedules] (default 25) runs injected with
    [plan] (default {!Fault_plan.default}, every fault kind on every
    component) under seeds [1..N], comparing outputs bit-for-bit, all
    from one prepared program ([config.latency] is not read). [jobs] (default 1) runs
    the schedules across an {!Sf_support.Executor} pool; the report is
    indexed by seed and byte-identical for every [jobs] value. [Error]
    only when the baseline itself fails — per-schedule failures are
    reported in the {!report}. *)

val campaign :
  ?config:Engine.config ->
  ?placement:(string -> int) ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  ?plan:plan ->
  ?schedules:int ->
  ?jobs:int ->
  Sf_ir.Program.t ->
  (report, Sf_support.Diag.t) result
(** {!campaign_prepared} of {!Engine.prepare_program}. *)

val underprovision :
  channel_slack:int ->
  capacity:int ->
  string * string ->
  ((string * string) * int) list
(** A {!Fault_plan.t.depth_overrides} entry pinning the given edge's
    real channel capacity to exactly [capacity] words (the override
    compensates for the engine's [channel_slack], which otherwise pads
    every channel, so it may be negative). Raises [Invalid_argument]
    when [capacity < 1] — a capacity-zero channel cannot exist. *)

type depth_probe = {
  edge : string * string;  (** The tightest analysed edge. *)
  analysed_depth : int;
      (** Its analysed depth in words; the engine provisions
          [analysed_depth + channel_slack] of real capacity. *)
  tight_capacity : int option;
      (** Largest real capacity at which the run deadlocks — one word
          more completes. [None] when even capacity 1 completes (the
          edge is not load-bearing: no cycle of blocked components can
          form through it). *)
  probe_diag : Sf_support.Diag.t option;
      (** The [SF0701] produced by re-running at [tight_capacity] under
          the fault plan, carrying fault-attribution notes. *)
}

val probe_tightest :
  ?config:Engine.config ->
  ?placement:(string -> int) ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  ?plan:plan ->
  ?fault_seed:int ->
  ?jobs:int ->
  Engine.prepared ->
  depth_probe option
(** Adversarial under-provisioning of the tightest edge of the prepared
    analysis; every run starts from that prepared program, so the edge
    and the depths come from one analysis ([config.latency] is not read).
    Binary-searches the largest deadlocking capacity below the analysed
    provisioning — deadlocks in a Kahn network depend only on channel
    capacities and shrink monotonically with them, so the boundary is
    well-defined and independent of timing. [jobs] (default 1) widens
    each bisection round into a k-section: up to [jobs] interior
    capacities of the bracket are simulated concurrently on an
    {!Sf_support.Executor} pool, and monotonicity guarantees the same
    boundary as the serial search — then re-runs once at that
    capacity under [plan] (default {!Fault_plan.default}) and [fault_seed] to
    capture the [SF0701] with fault-attribution notes. The analysis is
    often conservative (it budgets compute latency the slow path does
    not need before its first word), so [tight_capacity] typically sits
    a few words below [analysed_depth]: the gap is the provisioning
    margin, and a [Some] result proves the edge is genuinely
    load-bearing. [None] when the program has no positive-depth edge. *)

val shrink :
  fails:(Fault_plan.t -> bool) ->
  Fault_plan.t ->
  witness:Fault_plan.summary ->
  Fault_plan.t option
(** Reduce a failing plan to a minimal counterexample. The [witness] is
    the injected-event log of a failing run of [plan]; its events are
    replayed as a scripted plan (so candidates need no seed), then
    ddmin-ed down and their durations halved while [fails] keeps
    holding. [None] if the scripted replay does not fail. The event list
    of the result may be empty: a depth-override plan that deadlocks
    with zero injected events proves the capacities, not the timing,
    cause the failure — a Kahn network's deadlocks depend only on
    buffer bounds. *)
