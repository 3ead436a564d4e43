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
(** Register a remote stream crossing this link. *)

val cycle : t -> now:int -> bool
(** One link cycle: move at most one matured word per port from its
    in-flight ring into the destination channel, if it has room; then
    refill the bandwidth budget and move at most one word per port from
    the source channel into its ring, released [latency_cycles] (plus
    any injected extra latency) later; then (with a probe) classify a
    cycle without progress. Returns true when any word was injected or
    delivered. *)

val name : t -> string
val bytes_transferred : t -> int

val is_idle : t -> bool
(** No words in flight. *)

val port_channels : t -> (Channel.t * Channel.t) list
(** [(src, dst)] channel pair of every registered port, for the engine's
    wake-hook wiring. *)

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
    head's release (or its first injected word's), a delivery that does
    not also inject by the words in flight. [0] when no port would
    progress, a matured head is held back by a full destination, or the
    link is stalled. *)

val plan_delivers : t -> int -> bool
val plan_injects : t -> int -> bool
(** The roles [plan] chose for the port at an index (in
    {!port_channels} order). *)

val plan_chunk : t -> int
(** The most cycles one chunk of the window may run: a port that
    delivers and injects may deliver only words injected in an earlier
    chunk. [max_int] when unbounded. *)

val fit : t -> now:int -> int -> int
(** [fit t ~now k] shortens a planned window of [k] cycles to the
    leading cycles in which every delivering port's next word has
    matured and the bandwidth budget grants every injecting port. *)

val run_deliver : t -> int -> unit
(** [n] cycles of the planned deliveries, as one chunk: destination
    slots are appended past their capacity and the engine settles the
    high-water marks. *)

val run_inject : t -> now:int -> int -> unit
(** [n] cycles of the planned injections from cycle [now], as one
    chunk, with the bandwidth budget granted in bulk. *)

(** {2 Fault-injection hooks ({!Fault_plan})} *)

val set_stalled : t -> bool -> unit
(** While set, {!cycle} neither injects nor delivers (a full link
    freeze); lost cycles are classified as link latency. Cleared by the
    injector each cycle. *)

val set_extra_latency : t -> int -> unit
(** Extra propagation latency added to words injected while set.
    Delivery order stays FIFO per port. Cleared by the injector each
    cycle. *)

val extra_latency : t -> int
