(** Bounded lock-free single-producer single-consumer ring, specialized
    for link words in flight.

    Each link port keeps its in-flight words in one ring. In a
    domain-parallel run the upstream domain produces into it and the
    downstream domain consumes from it. Exactly one domain may produce and exactly one may
    consume; under that contract every operation is wait-free — and,
    unlike a generic ['a option array] queue, nothing here allocates.
    An element is two unboxed ints ([tag], [release]) in flat [int
    array] rings plus [lanes] word lanes in flat [float array]/[bool
    array] rings, written and read in place through the same
    structure-of-arrays idiom as {!Channel.Unsafe}.

    {b Cursors and contention.} The producer owns the tail, the
    consumer the head. Each side works against a cached copy of the
    other's cursor and refreshes it from the shared atomic only when
    the ring looks full (producer) or empty (consumer), so steady-state
    operations touch no foreign cache line at all. The two atomics are
    allocated with padding between the producer-written and
    consumer-written ones, keeping head and tail out of the same cache
    line (false sharing was a measured cost of the previous layout).

    {b Batched publication.} [try_produce] stages elements privately;
    [publish] makes everything staged visible to the consumer with one
    atomic store. The producer may stage any number of elements per
    [publish]. The atomic store/load pair on the tail (and
    symmetrically the head) provides the happens-before edges that make
    the plain arrays safe to share. *)

type t

val create : capacity:int -> lanes:int -> t
(** A ring holding at least [capacity] elements (rounded up to a power
    of two), each carrying [lanes] value/valid lanes. Both arguments
    must be positive. *)

val capacity : t -> int
val lanes : t -> int

(** {2 Producer side} *)

val try_produce : t -> tag:int -> release:int -> int
(** Stage one element and return the base offset of its lanes in
    {!values}/{!valid} (lane [l] lives at [base + l]), or [-1] when the
    ring is full. The caller fills the lanes, then calls {!publish} —
    staged elements are invisible to the consumer until then. *)

val publish : t -> unit
(** Make every staged element visible to the consumer. No-op when
    nothing is staged. *)

val free : t -> int
(** How many more elements {!try_produce} will accept at least: the
    capacity less everything staged and not yet consumed, against a
    fresh read of the consumer's cursor. *)

val values : t -> float array
val valid : t -> bool array
(** The lane rings. The producer may write only lanes of slots returned
    by {!try_produce} and not yet published; the consumer may read only
    lanes of the {!front} element. *)

(** {2 Consumer side} *)

val front : t -> int
(** Base lane offset of the oldest element, or [-1] when the ring is
    empty. Stable until {!consume}. *)

val front_tag : t -> int

val front_release : t -> int
(** The int fields of the oldest element. Only meaningful when {!front}
    returned [>= 0]. *)

val available : t -> int
(** How many published elements are unconsumed, against a fresh read
    of the producer's tail; {!release_at} may read that many. *)

val release_at : t -> int -> int
(** [release_at t j] is the release of the [j]-th oldest element
    ([0] is {!front_release}); [j] must be below {!available}. *)

val consume : t -> unit
(** Release the oldest element back to the producer. The caller must
    have finished reading its lanes. Raises [Failure] when empty. *)

(** {2 Either side} *)

val is_empty : t -> bool
(** Based on the published tail; a stale answer only errs toward
    "non-empty" on the producer side and "empty" on the consumer
    side. *)

val length : t -> int
(** Number of published, unconsumed elements at some recent instant. *)

val grow : t -> t
(** A ring of twice the capacity holding the published elements of [t]
    (which it consumes), all published. Only for a ring owned by a
    single domain. *)
