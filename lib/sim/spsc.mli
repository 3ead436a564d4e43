(** Growable FIFO ring, specialized for link words in flight.

    Each link port keeps its in-flight words in one ring: the link
    produces a word when it injects it and consumes it when it delivers
    it. An element is an unboxed release cycle in a flat [int array]
    ring plus [lanes] word lanes in flat [float array]/[bool array]
    rings, written and read in place through the same
    structure-of-arrays idiom as {!Channel.Unsafe}, so nothing here
    allocates per word. A full ring doubles its capacity on the next
    {!produce}: a full destination can hold words back for arbitrarily
    long. *)

type t

val create : capacity:int -> lanes:int -> t
(** A ring holding [capacity] elements (rounded up to a power of two)
    before it first grows, each carrying [lanes] value/valid lanes. Both
    arguments must be positive. *)

val capacity : t -> int
(** How many elements fit before the next growth. *)

val lanes : t -> int

val produce : t -> release:int -> int
(** Append one element, growing the ring when it is full, and return
    the base offset of its lanes in {!values}/{!valid} (lane [l] lives
    at [base + l]) for the caller to fill. *)

val values : t -> float array
val valid : t -> bool array
(** The lane rings. Growth replaces them, so fetch them after
    {!produce}. *)

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

val consume : t -> unit
(** Drop the oldest element. The caller must have finished reading its
    lanes. Raises [Failure] when empty. *)
