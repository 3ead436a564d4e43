(** Inter-device network links (the SMI substitute, paper Sec. VI-B).

    A link connects two adjacent devices with a fixed bandwidth (the
    testbed provides two 40 Gbit/s connections between consecutive FPGAs)
    and a propagation latency. Remote streams register a port on the
    link; injection contends for the shared bandwidth, delivery happens
    [latency] cycles later, subject to destination buffer space — the
    same FIFO semantics as on-chip channels. *)

type t

val create :
  ?probe:Telemetry.probe -> name:string -> bytes_per_cycle:float -> latency_cycles:int -> unit -> t
(** [probe] classifies no-progress cycles (destination backpressure,
    bandwidth denial, propagation latency) into the telemetry
    registry. *)

val add_port : t -> src:Channel.t -> dst:Channel.t -> word_bytes:int -> unit
(** Register a remote stream crossing this link. Words cross as values
    alone: a channel with validity flags is an [Invalid_argument]. *)

val cycle : t -> now:int -> bool
(** One link cycle: move at most one matured word per port from its
    in-flight ring into the destination channel, if it has room; then
    refill the bandwidth budget and move at most one word per port from
    the source channel into its ring, released [latency_cycles] (plus
    any injected extra latency) later; then (with a probe) classify a
    cycle without progress. Returns true when any word was injected or
    delivered. *)

val frozen_cycle : t -> now:int -> unit
(** Record a cycle in which an injected stall ({!Fault_plan}) freezes
    the link instead of running {!cycle}: nothing moves, and the cycle
    is classified as link latency on the first port with words in
    flight or waiting (nothing when there is none). *)

val name : t -> string
val bytes_transferred : t -> int

val is_idle : t -> bool
(** No words in flight. *)

val sources_empty : t -> bool
(** No port has a word waiting for injection. A link with empty sources
    and either empty or blocked in-flight rings can be put to sleep. *)

val next_arrival : t -> now:int -> int
(** Earliest in-flight release cycle strictly after [now], or [max_int]
    — the link's next self-wake time while its sources stay empty.
    Releases at or before [now] are excluded: a matured head that did
    not deliver this cycle is blocked on destination space, and only a
    pop on that destination can unblock it. *)

(** {2 Fast-forward windows}

    The engine's windows (docs/SIMULATOR.md) include links. In a window
    each port repeats two roles every cycle: it delivers (its head word
    has matured) or idles (nothing matures in the window), and injects
    (its source holds a word) or idles. The engine checks the channels: a delivering port's destination must never be
    full, an injecting port's source never empty, and an idle one's
    source must not be pushed. *)

val plan : t -> now:int -> int
(** Choose every port's roles for a window starting at [now], and bound
    the window by what the roles alone allow: an idle delivery by its
    head's release (or its first injected word's), a delivery by the
    words in flight unless it also injects and they cover the latency.
    [0] when no port would progress or a matured head is held back by
    a full destination. *)

val plan_delivers : t -> int -> bool
val plan_injects : t -> int -> bool
(** The roles [plan] chose for the port at an index (in {!add_port}
    order). *)

val fit : t -> now:int -> int -> int
(** [fit t ~now k] shortens a planned window of [k] cycles to the
    leading cycles in which every delivering port's next word has
    matured and the bandwidth budget grants every injecting port. *)

val run_port : t -> int -> now:int -> int -> unit
(** [run_port t i ~now n]: [n] cycles from [now] of the planned roles
    of the port at index [i], as one chunk run after its source's
    producer: one injected run (word [r] released [r] cycles after the
    first), then its [n] head words delivered, which [plan] proved
    mature, the chunk's own injections included, into destination
    slots past the capacity (the engine settles high-water marks). *)

val grant : t -> now:int -> int -> unit
(** Grant the budget [n] cycles of the planned injections in bulk. *)

(** {2 Fault injection ({!Fault_plan})} *)

val set_extra_latency : t -> int -> unit
(** Extra propagation latency added to words injected while set.
    Delivery order stays FIFO per port. The injector sets it at each
    fault transition. *)

val extra_latency : t -> int
