(** Release cycles of a FIFO of words, kept as runs.

    A unit past its compute latency, and a link injecting every cycle,
    hold words released one cycle apart. The line stores such a stretch
    as one run (its first release and where it starts), so appending
    [n] words, dropping [n] words and finding the first word not yet
    mature cost one step per run, not per word. Appending words whose
    releases continue the last run's extends that run; any other
    release starts a new one, so the line answers exactly as an array of
    one release per word would. A full ring of runs doubles. *)

type t

val create : capacity:int -> t
(** An empty line holding [capacity] runs (rounded up to a power of
    two) before it first grows; [capacity] must be positive. *)

val length : t -> int
(** Number of words held. *)

val append : t -> release:int -> int -> unit
(** [append t ~release n] adds [n] words at the tail, word [r] released
    at [release + r]. *)

val drop : t -> int -> unit
(** [drop t n] removes the [n] oldest words; [n] must not exceed
    {!length}. *)

val head : t -> int
(** Release of the oldest word, or [max_int] when the line is empty. *)

val release_at : t -> int -> int
(** [release_at t j] is the release of the [j]-th oldest word ([0] is
    {!head}); [j] must be below {!length}. One step per run. *)

val first_immature : ?skip:int -> t -> now:int -> int
(** The least [j] whose word [skip + j] is not mature at relative cycle
    [j] ([release_at t (skip + j) > now + j]), or [max_int] when every
    word from [skip] (default [0]) on is. All words of a run share
    [release - j], so this is one test per run. *)
