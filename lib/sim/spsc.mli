(** Growable FIFO ring, specialized for link words in flight.

    Each link port keeps its in-flight words in one ring: the link
    produces a word when it injects it and consumes it when it delivers
    it. An element is [lanes] word lanes in a flat [float array] ring,
    written and read in place a run of elements at a time through the
    same structure-of-arrays idiom as {!Channel.Unsafe}, plus a release
    cycle, kept in a {!Release_line} as runs of consecutive releases; so
    nothing here allocates or stores a release per word. A full ring
    doubles its capacity on the next {!produce}: a full destination can
    hold words back for arbitrarily long. *)

type t

val create : capacity:int -> lanes:int -> t
(** A ring holding [capacity] elements (rounded up to a power of two)
    before it first grows, each carrying [lanes] value lanes (link
    words carry no validity flags). Both arguments must be positive. *)

val capacity : t -> int
(** How many elements fit before the next growth. *)

val lanes : t -> int

val produce : t -> release:int -> int -> int
(** [produce t ~release n] appends [n] elements, growing the ring until
    they fit, element [r] released at [release + r] (one run of the
    release line, or an extension of its last run), and returns the base
    offset of the first one's lanes in {!values} (lane [l] of element
    [r] lives at [base + r * lanes + l], wrapping at the end of the
    array) for the caller to fill. *)

val values : t -> float array
(** The lane ring. Growth replaces it, so fetch it after {!produce}. *)

val front : t -> int
(** Base lane offset of the oldest element, or [-1] when the ring is
    empty. Stable until {!consume} or {!produce}. *)

val front_release : t -> int
(** The release of the oldest element, or [max_int] when the ring is
    empty. *)

val length : t -> int
(** Number of elements held; {!release_at} may read that many. *)

val release_at : t -> int -> int
(** [release_at t j] is the release of the [j]-th oldest element
    ([0] is {!front_release}); [j] must be below {!length}. One step
    per run ({!Release_line.release_at}). *)

val first_immature : t -> now:int -> int
(** The least [j] whose element is not released by relative cycle [j]
    ([release_at t j > now + j]), or [max_int] when every element is
    ({!Release_line.first_immature}). *)

val consume : t -> int -> unit
(** [consume t n] drops the [n] oldest elements. The caller must have
    finished reading their lanes. Raises [Failure] when fewer are held. *)
