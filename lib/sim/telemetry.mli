(** Cycle-level simulator telemetry: a typed counter registry, stall
    attribution and a structured event trace.

    The paper's evaluation (Eq. 1 / Fig. 11, the bandwidth study of
    Fig. 16, the deadlock experiments of Fig. 4) is explained by where
    cycles go: which unit stalls on which channel, which reader the
    memory controller starves, which link hop backs up. This module is
    the engine's observability layer for exactly that question.

    A {!t} is created per run by {!Engine}. When enabled (see
    [Engine.Config.tracing]), every component owns a {!probe} and
    classifies each no-progress cycle by {!stall_cause}, blaming the
    channel that blocked it; the engine then freezes everything into a
    {!report} — per-component {!counters}, per-channel FIFO statistics,
    occupancy samples and {!span} events — which renders as a
    stall-attribution table ({!pp_attribution}), a counters JSON
    document ({!counters_json}) and a Chrome [trace_event] JSON trace
    ({!trace_events_json}) viewable in [chrome://tracing] or Perfetto.

    When disabled, probes are absent and the hot loop pays nothing; the
    report still carries the always-on aggregates (total stalls,
    high-water marks, push/pop counts) harvested once at end of run. *)

(** Why a component made no progress on a given cycle. *)
type stall_cause =
  | Input_starved  (** An input channel the component must pop is empty. *)
  | Output_full  (** An output channel the component must push is full. *)
  | Bandwidth_denied
      (** The memory or link {!Controller} refused the byte budget. *)
  | Link_latency
      (** All of a link's in-flight words are still propagating. *)
  | Pipeline_drain
      (** A stencil unit waiting only on its own compute pipeline: the
          pending line is full or its head has not matured. *)

val cause_name : stall_cause -> string
(** Stable kebab-case name ("input-starved", "output-full", ...). *)

val all_causes : stall_cause list

(** Component kinds, for grouping and rendering. *)
type kind = Unit | Reader | Writer | Link

val kind_name : kind -> string

type t
(** One run's collector. *)

type probe
(** Per-component recording handle; only exists when telemetry is
    enabled, so components carry a [probe option] and the disabled mode
    costs one [match] per cycle call. *)

val create : enabled:bool -> unit -> t

val probe : t -> kind:kind -> name:string -> probe option
(** Register a component. [None] when the collector is disabled. *)

val stall : probe -> now:int -> ?channel:string -> stall_cause -> unit
(** Record one blocked cycle at [now], blaming [channel] when one is
    responsible. Consecutive stalls with the same cause and channel
    accumulate into a single {!span}. *)

val sleep : probe -> now:int -> cycles:int -> unit
(** Credit [cycles] slept cycles from [now] on, each a repeat of the
    stall recorded for cycle [now - 1], the one the component fell
    asleep on (nothing when that cycle was no stall). *)

val busy : probe -> now:int -> cycles:int -> unit
(** Record [cycles] progressing cycles from [now] on; closes any open
    stall span. *)

(** {2 Frozen results} *)

(** The counter registry entry of one component. [stalled_cycles] is the
    always-on aggregate; [stalls_by_cause] and [blocked_on] are only
    populated when telemetry was enabled (they sum to [stalled_cycles]
    for stencil units, whose stalls are also counted when disabled). *)
type counters = {
  name : string;
  kind : kind;
  busy_cycles : int;  (** Cycles with progress (enabled runs only). *)
  stalled_cycles : int;  (** Total no-progress cycles while not done. *)
  stalls_by_cause : (stall_cause * int) list;  (** Nonzero causes only. *)
  blocked_on : (string * int) list;
      (** Blamed channels with blocked-cycle counts, descending. *)
  pushes : int;  (** Words pushed into the component's output channels. *)
  pops : int;  (** Words popped from the component's input channels. *)
  bytes : int;  (** Off-chip or network bytes moved by the component. *)
}

(** Per-channel FIFO statistics. *)
type channel_info = {
  channel : string;
  capacity : int;
  high_water : int;
  total_pushed : int;
  total_popped : int;
}

(** One interval event on a component's timeline: either the component's
    active phase ([label = "active"]) or a stall span
    ([label = "stall:<cause>"] with [blocking] naming the blamed
    channel). [end_cycle] is exclusive. *)
type span = {
  track : string;
  label : string;
  start_cycle : int;
  end_cycle : int;
  blocking : string option;
}

type report = {
  enabled : bool;
  cycles : int;
  components : counters list;
      (** Stencil units in topological order, then readers, writers and
          links in creation order. *)
  channels : channel_info list;  (** In channel creation order. *)
  samples : (int * (string * int) list) list;
      (** Occupancy samples [(cycle, [(channel, occupancy)])] — present
          when [trace_interval] was set, independent of [enabled]. *)
  spans : span list;  (** Sorted by start cycle; enabled runs only. *)
}

val freeze :
  t ->
  cycles:int ->
  components:counters list ->
  channels:channel_info list ->
  samples:(int * (string * int) list) list ->
  report
(** Close all open spans at [cycles] and assemble the report. Called
    once by the engine at end of run. *)

val counters_row :
  ?probe:probe ->
  ?stalled:int ->
  ?pushes:int ->
  ?pops:int ->
  ?bytes:int ->
  name:string ->
  kind:kind ->
  unit ->
  counters
(** Build one registry entry during harvest. Cause breakdown, blamed
    channels and busy cycles come from [probe] when present; [stalled]
    overrides the total (used for stencil units, whose aggregate stall
    counter is maintained even with telemetry off). *)

(** {2 Derived views} *)

val unit_stalls : report -> (string * int) list
(** [(name, stalled_cycles)] of every stencil unit, in topological
    order — the shape of the old [stats.unit_stalls] field. *)

val channel_high_water : report -> (string * int * int) list
(** [(name, high_water, capacity)] in creation order — the shape of the
    old [stats.channel_high_water] field. *)

val total_blocked : report -> int
(** Sum of [stalled_cycles] over all components. *)

val attribution : report -> counters list
(** Components with at least one blocked cycle, most-blocked first
    (ties keep registry order). *)

val top_blocker : counters -> (string * int) option
(** The channel this component was most often blocked on. *)

val pp_attribution : Format.formatter -> report -> unit
(** The stall-attribution table: one row per blocked component with its
    blocked/busy cycle counts, dominant cause and top blocking
    channel, against the run's total cycles. *)

val attribution_notes : ?limit:int -> report -> string list
(** The top [limit] (default 3) attribution rows as single-line strings,
    for attachment to deadlock/timeout diagnostics as notes. *)

(** {2 JSON renderings} *)

val counters_json : report -> Sf_support.Json.t
(** The full registry: [{"cycles": _, "components": [...],
    "channels": [...]}] with per-cause stall counts and blamed
    channels. *)

val trace_events_json : report -> Sf_support.Json.t
(** The run as Chrome [trace_event] JSON: an object with a
    ["traceEvents"] array holding thread-name metadata ([ph = "M"]) per
    component, complete events ([ph = "X"]) for active phases and stall
    spans (with cause and blamed channel in [args]), and counter events
    ([ph = "C"]) for sampled channel occupancies. Timestamps are cycle
    numbers (1 cycle = 1 "microsecond"). Open the file in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)
