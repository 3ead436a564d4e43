(** Growable FIFO ring, specialized for link words in flight.

    Each link port keeps its in-flight words in one ring: the link
    produces a word when it injects it and consumes it when it delivers
    it. An element is an unboxed release cycle in a flat [int array]
    ring plus [lanes] word lanes in a flat [float array] ring, written
    and read in place a run of elements at a time through the same
    structure-of-arrays idiom as {!Channel.Unsafe}, so nothing here
    allocates per word. A full ring doubles its capacity on
    the next {!produce}: a full destination can hold words back for
    arbitrarily long. *)

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
    they fit, element [r] released at [release + r], and returns the base
    offset of the first one's lanes in {!values} (lane [l] of element
    [r] lives at [base + r * lanes + l], wrapping at the end of the
    array) for the caller to fill. *)

val values : t -> float array
(** The lane ring. Growth replaces it, so fetch it after {!produce}. *)

val front : t -> int
(** Base lane offset of the oldest element, or [-1] when the ring is
    empty. Stable until {!consume} or {!produce}. *)

val front_release : t -> int
(** The release of the oldest element. Only meaningful when {!front}
    returned [>= 0]. *)

val length : t -> int
(** Number of elements held; {!release_at} may read that many. *)

val release_at : t -> int -> int
(** [release_at t j] is the release of the [j]-th oldest element
    ([0] is {!front_release}); [j] must be below {!length}. *)

val consume : t -> int -> unit
(** [consume t n] drops the [n] oldest elements. The caller must have
    finished reading their lanes. Raises [Failure] when fewer are held. *)
