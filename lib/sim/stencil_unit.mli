(** A stencil unit: the dedicated pipeline instantiated for one stencil
    operation (paper, Sec. III-A and Fig. 12).

    Per successful pipeline step the unit consumes one word from every
    active input stream (shifting it into the field's internal window
    buffer), and — once the initialization phase has passed — computes one
    output word and emits it after its compute latency, multicasting to
    every consumer channel. If any required input is empty or any output
    is full, the whole unit stalls for the cycle (the fine-grained
    per-cell dependency of Sec. III-A).

    The consumption schedule realizes the internal-buffer analysis
    exactly: input [f] starts being consumed at step
    [init_max - init_f] (larger buffers start immediately, Sec. IV-A),
    the first output is produced at step [init_max], and out-of-bounds
    taps are predicated with the input's boundary condition. *)

type input_binding = {
  field : string;
  axes : int list;
      (** The program axes the field spans ({!Sf_ir.Program.field_axes}). *)
  channel : Channel.t option;
      (** [None] for prefetched lower-dimensional inputs. *)
  prefetched : Sf_reference.Tensor.t option;
      (** The whole tensor, for lower-dimensional inputs. *)
}

type t

val create :
  ?probe:Telemetry.probe ->
  program:Sf_ir.Program.t ->
  stencil:Sf_ir.Stencil.t ->
  lowered:Sf_reference.Compile.program ->
  info:Sf_analysis.Delay_buffer.node_info ->
  inputs:input_binding list ->
  outputs:Channel.t list ->
  unit ->
  t
(** [lowered] is the stencil's body, shared and only read; [info] is its
    delay-buffer analysis entry. The unit reads only the values of its
    inputs; a shrink unit's validity comes from its own taps and goes
    only to outputs that carry flags. [probe]
    enables per-cycle stall classification (cause + blamed channel)
    into the telemetry registry; without it only the aggregate
    {!stall_cycles} counter is maintained. *)

val name : t -> string
val is_done : t -> bool

val cycle : t -> now:int -> bool
(** Advance one clock cycle; returns true if any progress was made
    (a flush or a pipeline step). *)

val stall_cycles : t -> int

val add_stalls : t -> int -> unit
(** Credit stall cycles accounted lazily by the scheduler for cycles the
    unit was provably unable to progress and therefore not run. *)

val set_hiccup : t -> bool -> unit
(** Fault-injection hook ({!Fault_plan}): while set, the pipeline
    freezes — {!cycle} makes no progress (counted and classified as a
    pipeline stall) and {!plan} returns [0]. Cleared by the injector
    each cycle. *)

val input_channels : t -> Channel.t list
(** Streaming (full-rank) input channels, for wake-hook wiring. *)

val output_channels : t -> Channel.t list

val next_release : t -> int
(** Release cycle of the oldest pending word, or [max_int] when the
    pending line is empty — the unit's next self-wake time. *)

(** {2 Fast-forward planning}

    A plan is the single action (flush and/or step) the unit will repeat
    identically every cycle for up to its horizon, given unchanged
    channel feasibility. The horizon only accounts for the unit's own
    state (phase boundaries, pending-line maturity); the engine bounds
    it further using channel occupancies. *)

val plan : t -> now:int -> int
(** Plan from cycle [now] and return the horizon, or [0] when the unit
    cannot make progress this cycle (then the engine falls back to
    per-cycle stepping). The plan is kept in the unit until the next
    call. *)

val plan_flush : t -> bool
(** Whether the plan emits one word per cycle to every output. *)

val plan_pops : t -> int -> bool
(** Whether the plan consumes one word per cycle from the [k]th channel
    of {!input_channels}. *)

val run_planned : t -> now:int -> int -> unit
(** [run_planned t ~now n] executes cycles [now] to [now + n - 1] of the
    plan as one chunk, without re-checking feasibility: [n] steps (one
    ring copy of [n] words per consuming input, the words evaluated one
    row segment per dispatch), then [n] flushes (one bulk push per
    output). Requires [n <= Channel.chunk]. *)

(** What blocks a unit: an input it must pop that is empty (by field,
    with its channel), or an output channel that is full. *)
type blockage = Input_empty of { field : string; channel : string } | Output_full of string

val blockages : t -> blockage list
(** Every blockage, empty inputs first, each group in channel order;
    [\[\]] when done or waiting only on the pending line. Outside a
    hiccup the first one is the cause {!cycle} records for a stall, and
    the deadlock diagnosis reads them all. *)
