(** Deterministic timing-fault plans for the simulator.

    A plan describes *when* components are perturbed, never *what* they
    compute: injected faults stall links, inflate link latency, deny
    memory-controller grants, backpressure writers and freeze stencil
    pipelines for bounded bursts — all value-preserving. The paper's
    deadlock-freedom argument (Sec. IV-B) says the analysed delay-buffer
    depths tolerate any such interleaving; {!Faults.campaign} uses this
    module to exercise that claim adversarially.

    The whole fault timeline is a pure function of [(seed, plan)]: burst
    streams draw from a per-stream split of a SplitMix64 PRNG at cycles
    determined by earlier draws alone, never by simulation state, so a
    run is exactly reproducible and two different engine schedules see
    the identical perturbation sequence. *)

(** Splittable SplitMix64 PRNG. *)
module Rng : sig
  type t

  val make : int -> t
  val bits64 : t -> int64

  val int : t -> int -> int
  (** [int t n] draws uniformly from [\[0, n)]. [n] must be positive. *)

  val split : t -> string -> t
  (** Keyed derivation: a child stream independent of its siblings.
      Does not advance the parent, so split order is irrelevant. *)
end

type kind =
  | Link_stall  (** Freeze a link entirely: no injection, no delivery. *)
  | Link_jitter  (** Add extra propagation latency to injected words. *)
  | Mem_throttle  (** Deny every grant of a device's memory controller. *)
  | Write_backpressure  (** Block a memory writer's commits. *)
  | Unit_hiccup  (** Freeze a stencil unit's pipeline. *)

val kind_name : kind -> string
val kind_of_name : string -> kind option

(** A recurring fault source: bursts of random length separated by
    random gaps, on every matching component (or one named target). *)
module Burst : sig
  type t = {
    kind : kind;
    target : string option;  (** [None] targets every matching component. *)
    gap : int;  (** Mean idle cycles between bursts (drawn from [\[1, 2*gap\]]). *)
    duration : int;  (** Maximum burst length (drawn from [\[1, duration\]]). *)
    magnitude : int;  (** Maximum jitter magnitude (drawn from [\[1, magnitude\]]). *)
    count : int;  (** Maximum bursts per component; [max_int] = unbounded. *)
  }

  val make :
    ?target:string -> ?gap:int -> ?duration:int -> ?magnitude:int -> ?count:int -> kind -> t
  (** Defaults: all components, gap 200, duration 16, magnitude 8,
      unbounded count. *)
end

(** One concrete injected fault: [target] perturbed for [duration]
    cycles starting at [start]. Both what a plan can script explicitly
    and what the injector logs. *)
module Event : sig
  type t = { kind : kind; target : string; start : int; duration : int; magnitude : int }
end

type t = {
  bursts : Burst.t list;
  events : Event.t list;  (** Explicitly scripted events (shrunk plans). *)
  depth_overrides : ((string * string) * int) list;
      (** Per-edge analysed-depth overrides for under-provisioning
          experiments; merged behind [Config.override_edge_buffers]. *)
}

val plan :
  ?bursts:Burst.t list ->
  ?events:Event.t list ->
  ?depth_overrides:((string * string) * int) list ->
  unit ->
  t

val none : t

val default : t
(** Every fault kind aimed at every matching component, with gaps short
    enough that small fixture runs see several bursts and durations far
    below any sane deadlock window. *)

val to_string : t -> string
(** Canonical plan syntax, round-tripping through {!of_string}:
    semicolon-separated items [kind\[@target\]\[:key=value,...\]] with
    burst keys [gap]/[dur]/[mag]/[count], explicit events marked by a
    [start] key, and [depth:src->dst=N] overrides. *)

val of_string : string -> (t, string) result
(** Parses the {!to_string} syntax plus the names ["default"] and
    ["none"]. *)

(** {2 Injection} *)

type summary = {
  injected_events : int;  (** Bursts/events that activated. *)
  injected_stall_cycles : int;  (** Component-cycles spent perturbed. *)
  log : Event.t list;  (** Every activation, in chronological order. *)
}

val empty_summary : summary

type injector

val create :
  seed:int ->
  plan:t ->
  links:(Link.t * int) list ->
  controllers:(string * Controller.t) list ->
  units:(string * int) list ->
  writers:(string * int) list ->
  injector
(** Bind a plan to a built system, each link, unit and writer with its
    component index. Freezes are kept by that index ({!frozen_until});
    jitter and denial are set on the link and the controller. Targets
    that name absent components are dropped (a plan written for a
    multi-device run stays usable on a single-device degrade). *)

val tick : injector -> now:int -> wake:(int -> unit) -> unit
(** Advance the fault timeline to cycle [now]: end and start the bursts
    due, then derive each target's state (freeze end, link latency,
    controller denial) from the active streams. It holds until the next
    transition, so the engine ticks only at {!horizon}, where windows
    and jumps stop; a tick with no transition changes nothing. [wake]
    gets the component index of the target of every stream that starts
    or ends a burst (a memory controller has none). *)

val horizon : injector -> int
(** The next cycle after the last {!tick} at which a stream starts or
    ends a burst, or [max_int]. *)

val frozen_until : injector -> int -> int
(** [frozen_until inj i]: the cycle at which component [i]'s freeze
    ends, as of the last {!tick}; it is frozen at [now] while greater. *)

val summary : injector -> cycles:int -> summary
(** What the injector did over a run of [cycles] cycles. *)

val attribution_notes : summary -> stall_cycle:int -> string list
(** Diag notes blaming the injected events that preceded a failure at
    [stall_cycle]: a totals line plus one ["fault-attribution: ..."] line
    for each of the (up to 3) most recent preceding events. Empty when
    nothing had been injected yet. *)
