(** Bounded FIFO channels between processing elements.

    Channels model the Intel OpenCL channel / hardware FIFO abstraction
    the paper maps DaCe streams onto (Sec. VI-A). Their capacity is the
    delay-buffer depth computed by the analysis plus a small slack; the
    high-water mark is recorded so tests can check how tightly the
    analysis sizes buffers.

    Storage is structure-of-arrays: one flat [float array] for lane
    values and, only on a channel created [~validity:true] (the engine's
    channels into memory writers), one [bool array] for lane validity,
    each one ring of slots of [width] lanes per edge, laid out as
    history, then occupancy and chunk slack, then pending words:
    - [history] slots behind the head keep the words the consumer
      already popped, which a stencil unit's taps read in place (its
      shift register, Fig. 6);
    - [capacity + chunk ~width] slots hold the words in flight; the
      [chunk ~width] past the capacity are room for the engine's
      fast-forward path, which pushes a chunk of words before their
      consumer pops them;
    - [pending] slots past the tail take a producing unit's computed
      words until it pushes them, so that pushing copies nothing.
    The raw slot API lives in {!Unsafe} and lets
    hot paths move lanes in place without allocating; the public surface
    is the FIFO operations plus the telemetry counters ({!occupancy},
    {!total_pushed}, {!total_popped}, {!high_water}). The
    {!Word.t}-based API is retained for tests and cold paths and
    allocates on {!pop}/{!peek}. *)

type t

val chunk : width:int -> int
(** The most words one fast-forward chunk moves through a channel of
    [width] lanes: at least 512 cells and at least 256 words, so 512
    words at W = 1 and 256 at W >= 2. A chunk is what the engine moves
    between two visits of a component, and each visit of a stencil unit
    costs a plan lookup and a row-segment split, so a W = 1 run (the
    paper's long chains) takes half as many visits as at 256 words. At
    W >= 2, 256 words already hold 512 cells or more; growing them
    would enlarge every channel's slack, history and pending reserve
    by W cells per word for fewer visits than W = 1 saves. *)

val create : ?validity:bool -> name:string -> capacity:int -> unit -> t
(** [capacity] is in words and must be positive; the width is 1.
    [validity] (default [false]) allocates per-lane validity flags,
    initially all valid. *)

val create_vec :
  ?validity:bool -> ?history:int -> ?pending:int -> width:int -> name:string -> capacity:int ->
  unit -> t
(** As {!create} with [width] lanes per word. [history] and [pending]
    (default [0]) are the reserves, in words, behind the head and past
    the tail; they add room to the ring, not to the capacity. *)

val name : t -> string
val capacity : t -> int
val width : t -> int

val history : t -> int
(** Words the ring keeps behind the head: its consumer's last [history]
    popped words stay in place, out of reach of every push and pending
    word. *)

val pending : t -> int
(** Words the ring keeps past the tail for its producer
    ({!Unsafe.pending_slot}). *)

val has_validity : t -> bool
val occupancy : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val drop : t -> unit
(** Discard the oldest slot (a pop whose lanes have been read in place
    via {!Unsafe.front_slot}). Fires the pop hook. Raises [Failure] when
    empty. *)

(** {2 Zero-allocation slot access}

    The raw structure-of-arrays internals, for the simulator's hot
    paths (stencil units and memory units copying lanes in place).
    Slots are addressed by the base offset of their first lane in
    {!Unsafe.buf_values} / {!Unsafe.buf_valid}; lane [l] of a slot with
    base [b] lives at index [b + l] ({!Unsafe.buf_valid} is empty
    without validity). Callers own the invariant that
    every lane of a pushed slot is written before the next simulator
    step reads it — nothing here is checked beyond occupancy. *)

module Unsafe : sig
  val buf_values : t -> float array
  val buf_valid : t -> bool array

  val push_slot : t -> int
  (** Append a slot and return its base offset. The caller must fill
      all [width] lanes of {!buf_values} at that offset, and of
      {!buf_valid} when the channel has validity. Updates occupancy, the
      push counter and the high-water mark, and fires the push hook.
      Raises [Failure] when full. *)

  val push_slots : t -> int -> int
  (** [push_slots t n] appends [n] consecutive slots and returns the base
      offset of the first; the caller fills [n * width] lanes from there,
      wrapping at the end of the buffers (see {!blit_values}). As
      {!push_slot} for [n] slots, with one push hook call: raises
      [Failure] past the capacity. *)

  val push_run : t -> int -> int
  (** As {!push_slots} for the fast-forward path: may fill the [chunk ~width]
      slots past the capacity, raising [Failure] only past
      [capacity + chunk ~width] (before it would reach the history
      reserve), and leaves the high-water mark to
      {!settle_high_water}. *)

  val pending_slot : t -> int -> int
  (** [pending_slot t k]: base offset of the [k]th slot past the tail,
      in the pending reserve. A producer writes words there before it
      pushes them; the push that appends them copies nothing. Raises
      [Invalid_argument] unless [0 <= k < pending t]. *)

  val settle_high_water : ?peak:int -> t -> unit
  (** Raise the high-water mark to [peak] or the current occupancy,
      whichever is larger. The engine calls it on every channel a
      fast-forward window pushed, with the largest occupancy any push
      of the window left in cycle order, which it derives from the
      window's push and pop rates. *)

  val front_slot : t -> int
  (** Base offset of the oldest slot. Raises [Failure] when empty. *)

  val drop_run : t -> int -> unit
  (** [drop_run t n] discards the [n] oldest slots, read in place from
      {!front_slot} on, with one pop hook call. Raises [Failure] when
      fewer are held. *)

  (** {3 Ring copies}

      The movers between rings: a channel's buffers, a link's
      {!Spsc} rings, or a flat array read from one position without
      wrapping (a unit's frame, a reader's tensor). A ring is its whole
      array and wraps at its end; a run of [len] elements must fit in
      both rings. *)

  val blit_values : float array -> int -> float array -> int -> int -> unit
  (** [blit_values src s dst d len] copies [len] elements from [src] at
      [s] to [dst] at [d], wrapping each at its end: at most three
      [Array.blit]s. *)

  val blit_valid : bool array -> int -> bool array -> int -> int -> unit
  (** As {!blit_values} for validity flags. *)
end

val set_hooks : t -> on_push:(unit -> unit) -> on_pop:(unit -> unit) -> unit
(** Install wake hooks, fired after every successful push and pop
    respectively (including the slot API). Used by the engine's
    ready-set scheduler; defaults are no-ops. *)

(** {2 Word-based compatibility API} *)

val push : t -> Word.t -> unit
(** Copies the word's lanes into the ring. The word width must match the
    channel width, and a channel without validity takes only all-valid
    words ([Invalid_argument] otherwise). Raises [Failure] when full. *)

val pop : t -> Word.t
(** Allocates a fresh word holding the oldest slot, all valid on a
    channel without validity. Raises [Failure] when empty. *)

val peek : t -> Word.t option
(** Allocates a fresh copy of the oldest slot, if any. *)

val total_pushed : t -> int
val total_popped : t -> int
val high_water : t -> int
