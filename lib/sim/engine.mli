(** The cycle-level spatial simulator: this reproduction's substitute for
    the paper's Stratix 10 testbed (see DESIGN.md).

    The engine instantiates one {!Stencil_unit} per stencil, FIFO
    channels with the depths computed by the delay-buffer analysis
    (Sec. IV-B), prefetching memory readers and buffering writers behind a
    bandwidth-limited memory {!Controller} per device, and network
    {!Link}s for edges whose endpoints are placed on different devices
    (Sec. III-B). It then advances the whole system cycle by cycle until
    all program outputs have been written, or reports a deadlock when no
    component can make progress.

    Because the units execute the real computations on real data, a run
    both measures cycles (to validate the model C = L + N of Eq. 1) and
    produces output tensors (validated against {!Sf_reference.Interp}).

    Every run carries a {!Telemetry.report}: push/pop/byte counters and
    channel high-water marks are harvested from always-on component
    counters at no per-cycle cost, while per-cause stall attribution and
    the event trace require {!Config.tracing} with [telemetry = true]
    (same schedule, cycles and stall counts; see docs/SIMULATOR.md). *)

(** Engine configuration, grouped by concern. Build one with
    {!Config.make}; every group has a smart constructor supplying the
    defaults, so call sites name only what they change:
    {[
      Engine.Config.make
        ~bandwidth:(Engine.Config.bandwidth ~mem_bytes_per_cycle:64. ())
        ~safety:(Engine.Config.safety ~max_cycles:100_000 ())
        ()
    ]} *)
module Config : sig
  type bandwidth = {
    mem_bytes_per_cycle : float;  (** Per-device off-chip bandwidth. *)
    writer_buffer : int;  (** Extra buffering in front of memory writers. *)
  }

  type network = {
    net_bytes_per_cycle : float;  (** Per-link network bandwidth. *)
    net_latency_cycles : int;
  }

  type safety = {
    deadlock_window : int;
        (** Cycles without any progress before declaring deadlock. *)
    max_cycles : int option;
  }

  type tracing = {
    trace_interval : int option;
        (** When set, sample every channel's occupancy every N cycles into
            {!Telemetry.report.samples} (for visualizing fill behaviour
            and buffer tightness over time). *)
    telemetry : bool;
        (** Run instrumented: classify every component's no-progress
            cycles by cause and record stall spans for the event trace.
            The schedule, cycle and stall counts are those of an
            uninstrumented run. *)
  }

  val bandwidth : ?mem_bytes_per_cycle:float -> ?writer_buffer:int -> unit -> bandwidth
  (** Defaults: unlimited bandwidth, 8 words of writer buffering. *)

  val network : ?net_bytes_per_cycle:float -> ?net_latency_cycles:int -> unit -> network
  (** Defaults: unlimited bandwidth, 64 cycles latency. *)

  val safety : ?deadlock_window:int -> ?max_cycles:int -> unit -> safety
  (** Defaults: 4096-cycle idle window, no cycle budget. *)

  val tracing : ?trace_interval:int -> ?telemetry:bool -> unit -> tracing
  (** Defaults: no occupancy sampling, telemetry off. *)

  type faults = {
    plan : Fault_plan.t option;
        (** When set, the engine runs with deterministic fault injection:
            the plan's bursts/events perturb component timing (never
            values) and its depth overrides shrink specific channels. *)
    fault_seed : int;
        (** Seed of the fault timeline. The whole perturbation sequence
            is a pure function of [(fault_seed, plan)]. *)
  }

  val faults : ?plan:Fault_plan.t -> ?seed:int -> unit -> faults
  (** Defaults: no plan (faults disabled), seed 1. *)

  type t = {
    latency : Sf_analysis.Latency.config;
    channel_slack : int;
        (** Extra FIFO capacity on every channel beyond the analysed delay
            buffer, covering per-hop pipeline registers. *)
    override_edge_buffers : ((string * string) * int) list;
        (** Replace the analysed buffer size on specific edges — used by
            the deadlock experiments (Fig. 4) to demonstrate what happens
            with insufficient buffering. *)
    bandwidth : bandwidth;
    network : network;
    safety : safety;
    tracing : tracing;
    faults : faults;
  }

  (** The benchmark in [bench/flow] still passes a parallelism mode to
      {!make}. It is accepted and ignored: every placement runs on the
      one scheduler. These go with the next change to that benchmark. *)

  type par_mode = [ `Sequential | `Domains_per_device ]
  type parallelism

  val parallelism : ?mode:par_mode -> unit -> parallelism

  val make :
    ?latency:Sf_analysis.Latency.config ->
    ?channel_slack:int ->
    ?override_edge_buffers:((string * string) * int) list ->
    ?bandwidth:bandwidth ->
    ?network:network ->
    ?safety:safety ->
    ?tracing:tracing ->
    ?parallelism:parallelism ->
    ?faults:faults ->
    unit ->
    t

  val default : t
  (** [make ()]. *)

  val latency_fingerprint : Sf_analysis.Latency.config -> Sf_support.Fingerprint.t
  (** Content digest of just the operator-latency table — the part of
      the config that delay-buffer analysis and the performance model
      actually read, so cache keys for those passes ignore unrelated
      simulation knobs (seed, safety limits, tracing). *)

  val fingerprint : t -> Sf_support.Fingerprint.t
  (** Content digest over every field that can change a result (fault
      plans via their canonical [Fault_plan.to_string] rendering). *)
end

type config = Config.t

type stats = {
  cycles : int;
  predicted_cycles : int;  (** L + N/W from the runtime model (Eq. 1). *)
  results : (string * Sf_reference.Interp.result) list;
  bytes_read : int;
  bytes_written : int;
  network_bytes : int;
  telemetry : Telemetry.report;
      (** Typed counter registry, channel occupancy samples and (when
          instrumented) stall attribution + event spans. The legacy
          shapes are derivable via {!Telemetry.unit_stalls} and
          {!Telemetry.channel_high_water}. *)
  faults : Fault_plan.summary;
      (** What the fault injector actually did: activation count,
          perturbed component-cycles and the chronological event log.
          {!Fault_plan.empty_summary} when no plan was configured. *)
}

type outcome =
  | Completed of stats
  | Deadlocked of {
      cycle : int;
      blocked : (string * string) list;  (** Component names with reasons. *)
      wait_cycle : string list;
          (** One circular wait through the blocked components — the
              concrete instance of Fig. 4's deadlock (e.g. [a] waits on
              [c] accepting data, [c] on [b] producing, [b] on [a]).
              Empty if no cycle was identified (e.g. a timeout rather
              than a true deadlock). *)
      timed_out : bool;
          (** The cycle budget ran out before the idle window tripped —
              a timeout ([SF0703]) rather than a true deadlock
              ([SF0701]). *)
      telemetry : Telemetry.report;
      faults : Fault_plan.summary;
          (** The injected-event log up to the failure, for
              fault-attribution notes. *)
    }

val run_exn :
  ?config:config ->
  ?placement:(string -> int) ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  Sf_ir.Program.t ->
  outcome
(** Simulate a program. [placement] maps each stencil name to a device
    index (default: everything on device 0); input fields are replicated
    to every device that reads them. [inputs] default to
    {!Sf_reference.Interp.random_inputs}. Despite the name this raises
    only on malformed programs ({!Sf_ir.Program.validate_exn}); a
    non-completing simulation is the [Deadlocked] outcome. *)

val run :
  ?config:config ->
  ?placement:(string -> int) ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  Sf_ir.Program.t ->
  (stats, Sf_support.Diag.t) result
(** {!run_exn} with structured failure: a deadlock maps to a Diag with
    code [SF0701], a cycle-budget timeout to [SF0703]. The Diag's notes
    carry the circular wait, each blocked component's reason, and (when
    instrumented) the top stall-attribution rows. *)

val run_and_validate :
  ?config:config ->
  ?placement:(string -> int) ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  Sf_ir.Program.t ->
  (stats, Sf_support.Diag.t) result
(** {!run}, then compare every program output against the sequential
    reference interpreter. A mismatch maps to code [SF0702]. *)

val to_result : config:config -> outcome -> (stats, Sf_support.Diag.t) result
(** The {!run} view of an outcome. *)

(** {2 Internal plumbing}

    The simulated system model and its scheduler, exposed so the
    benchmark can time system construction apart from the run and the
    test oracle can drive the same components on its own every-cycle
    schedule. Not part of the stable API. *)
module Internal : sig
  type system = {
    channels : Channel.t list ref;
    units : (Stencil_unit.t * Telemetry.probe option) list;
    readers : (Memory_unit.Reader.t * Telemetry.probe option) list;
    writers : (string * Memory_unit.Writer.t * Telemetry.probe option) list;
    links : (Link.t * Telemetry.probe option) list;
    mem_controllers : Controller.t array;
    prefetch_bytes : int;
    writers_done : int ref;
    channel_consumer : (string, string) Hashtbl.t;
    producer_for : (string * string, string) Hashtbl.t;
  }

  val build :
    config:Config.t ->
    telemetry:Telemetry.t ->
    placement:(string -> int) ->
    inputs:(string * Sf_reference.Tensor.t) list ->
    Sf_ir.Program.t ->
    system * int
  (** Instantiate the system; the [int] is the model-predicted cycle
      count (Eq. 1). Raises on malformed programs. *)

  (** A schedulable component. *)
  type comp =
    | Clink of Link.t  (** Cycled whole by {!Link.cycle}. *)
    | Cwriter of Memory_unit.Writer.t
    | Cunit of Stencil_unit.t
    | Creader of Memory_unit.Reader.t

  val components : system -> comp array
  (** The links, writers, units and readers, in the seed engine's
      per-cycle order. *)

  type sched = {
    advance : limit:int -> unit;
        (** Run from [now ()] up to the exclusive cycle [limit]
            (quiescence jumps included), stopping early once finished or
            deadlocked. *)
    now : unit -> int;  (** The next cycle to execute. *)
    windowed : unit -> int;  (** Cycles advanced by fast-forward windows. *)
    deadlocked : unit -> bool;  (** No progress for over [deadlock_window] cycles. *)
    samples : unit -> (int * (string * int) list) list;
        (** Occupancy samples, oldest first. *)
  }
  (** One scheduler over the system's {!components}: the ready set and
      wake hooks, lazy stall credit, fast-forward windows and quiescence
      jumps of docs/SIMULATOR.md. *)

  val scheduler :
    config:Config.t ->
    ?injector:Fault_plan.injector ->
    finished:(unit -> bool) ->
    system ->
    sched
  (** Wires the wake hooks of every channel. The memory controllers are
      refilled every stepped cycle; [finished] ends an advance early.
      Windows and jumps stop at occupancy samples and [injector]
      transitions; no window runs during a burst. *)

  val simulate :
    config:Config.t ->
    placement:(string -> int) ->
    inputs:(string * Sf_reference.Tensor.t) list ->
    drive:
      (system ->
      Fault_plan.injector option ->
      (unit -> bool) ->
      int * bool * (int * (string * int) list) list) ->
    Sf_ir.Program.t ->
    outcome
  (** Build the system and its fault injector, let [drive] run it to
      [(cycles, deadlocked, samples)], then diagnose the outcome.
      {!run_exn} drives one {!scheduler}. *)

  val compare_to_reference :
    inputs:(string * Sf_reference.Tensor.t) list ->
    Sf_ir.Program.t ->
    stats ->
    (stats, Sf_support.Diag.t) result
end
