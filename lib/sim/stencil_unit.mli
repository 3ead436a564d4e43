(** A stencil unit: the dedicated pipeline instantiated for one stencil
    operation (paper, Sec. III-A and Fig. 12).

    Per successful pipeline step the unit consumes one word from every
    active input stream, and — once the initialization phase has passed —
    computes one output word and emits it after its compute latency,
    multicasting to every consumer channel. Each edge is one ring
    ({!Channel}): a consumed word stays in its input channel's history
    reserve, which the unit's taps read in place as the field's shift
    register (Fig. 6), and a computed word waits in one output's pending
    reserve, so that emitting it copies nothing to that output. If any
    required input is empty or any output is full, the whole unit stalls
    for the cycle (the fine-grained per-cell dependency of Sec. III-A).

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

val history_words : info:Sf_analysis.Delay_buffer.node_info -> width:int -> string -> int
(** [history_words ~info ~width field]: the words a unit with delay-buffer
    entry [info] reads behind the head of its input channel for [field],
    the channel's least history reserve ({!Channel.history}): the
    field's register, plus the words a fast-forward chunk consumes
    before its first step computes. *)

val pending_words : info:Sf_analysis.Delay_buffer.node_info -> width:int -> int
(** The most words a unit with entry [info] computes and has not yet
    pushed: its lead output's least pending reserve
    ({!Channel.pending}). *)

val lead : Sf_ir.Stencil.t -> flags:bool array -> int
(** [lead stencil ~flags]: the index of the unit's lead output, the one
    that takes its computed words, given which outputs carry validity
    flags: the first that carries flags for a shrink unit, else output 0.
    Only the lead reserves {!pending_words}; the others copy its words
    when they are pushed. *)

type frames
(** The frames of one run's units: units whose lowering has no ring and
    is the same ({!Sf_reference.Compile.same_lowering}) share one. *)

val frames : unit -> frames
(** No frames yet: one per run, given to each of its units. *)

val create :
  ?probe:Telemetry.probe ->
  frames:frames ->
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
    only to outputs that carry flags. Every input channel must be fresh
    and reserve {!history_words} for its field, and the {!lead} output
    {!pending_words}. [Invalid_argument] otherwise. [probe]
    enables per-cycle stall classification (cause + blamed channel)
    into the telemetry registry; without it only the aggregate
    {!stall_cycles} counter is maintained. *)

val name : t -> string

val load_runs : t -> int * int
(** The load runs the unit's dispatches have copied into its frame and
    read in place from their channels or tensors, in that order
    ({!Sf_reference.Compile.load_runs}). *)

val is_done : t -> bool

val cycle : t -> now:int -> bool
(** Advance one clock cycle; returns true if any progress was made
    (a flush or a pipeline step). *)

val stall_cycles : t -> int

val add_stalls : t -> int -> unit
(** Credit stall cycles accounted lazily by the scheduler for cycles the
    unit was provably unable to progress and therefore not run. *)

val next_release : t -> int
(** Release cycle of the oldest pending word, or [max_int] when the
    pending line is empty — the unit's next self-wake time. *)

(** {2 Fast-forward planning}

    A plan is the unit's own schedule over a window: a short list of
    segments, each one action (flush and/or step) repeated every cycle
    of it. The segments follow the unit's phase changes (register fill,
    compute without flush, steady state, an input's start or end, drain,
    done) and its pending line's maturity, assuming every input it pops
    holds a word and every output it flushes to has room; the engine
    checks those channels and bounds the window. *)

val plan : t -> now:int -> until:int -> int
(** Plan from cycle [now], stopping at the first segment that would
    start at or after [until], and return the horizon: the cycles the
    segments cover, [max_int] when they end with the unit done, or [0]
    when the unit cannot make progress at [now] (then the engine steps
    that cycle). The plan is kept in the unit until the next call. *)

val plan_segments : t -> int
(** Number of segments of the plan. *)

val plan_segment_end : t -> int -> int
(** Where segment [j] ends, in cycles from the plan's [now]; segment
    [j] starts where segment [j - 1] ends (the first at [0]). *)

val plan_flushes : t -> int -> bool
(** Whether segment [j] emits one word per cycle to every output. *)

val plan_pops : t -> int -> int -> bool
(** [plan_pops t j k]: whether segment [j] consumes one word per cycle
    from its [k]th streaming input: the [k]th binding of [inputs] that
    has a channel. *)

val run_planned : t -> now:int -> int -> unit
(** [run_planned t ~now n] executes the planned cycles among [now] to
    [now + n - 1] as one chunk, without re-checking feasibility: the
    steps of each segment (one bulk pop per consuming input, the words
    evaluated one row segment per dispatch into the pending reserve),
    then all the flushes (one bulk push per output, and one ring copy
    per output beyond the first). Requires [n <= Channel.chunk ~width:W]. *)

val starved_input : t -> int
(** The streaming-input index (as in {!plan_pops}) of the first input the unit must pop
    that is empty, the blockage a stall records first; [-1] when there
    is none or when done. Until that channel is pushed,
    pushes into the unit's other inputs change neither whether it can
    progress nor what it records. *)

(** What blocks a unit: an input it must pop that is empty (by field,
    with its streaming-input index, as in {!plan_pops}), or a full
    output (by its position in [outputs]). *)
type blockage = Input_empty of { field : string; input : int } | Output_full of int

val blockages : t -> blockage list
(** Every blockage, empty inputs first, each group in channel order;
    [\[\]] when done or waiting only on the pending line. The first one
    is the cause {!cycle} records for a stall, and the deadlock
    diagnosis reads them all. *)
