(** Off-chip memory controller with a bytes-per-cycle budget.

    Models the DDR4 controller behaviour measured in the paper's
    bandwidth study (Sec. VIII-D, Fig. 16): all readers and writers on a
    device share an effective bandwidth that is well below the data-sheet
    peak once many access points contend. Fractional budgets accumulate
    across cycles so sub-byte-per-cycle rates still make progress. *)

type t

val create : bytes_per_cycle:float -> t
(** [bytes_per_cycle = infinity] disables the constraint. *)

val unlimited : unit -> t

val begin_cycle : t -> now:int -> unit
(** Refill the budget for cycle [now]; unspent budget does not
    accumulate beyond one cycle's worth (the bus cannot "save up"
    bandwidth), but fractional remainders carry so small rates are
    honoured on average. A controller not refilled on the cycle before
    [now] (its users slept, or the engine jumped) first gets one
    catch-up refill, which stands for any number of skipped cycles
    provided nothing was granted in them. *)

val request : t -> int -> bool
(** [request t bytes] grants all-or-nothing and debits the budget.
    Always refused while {!set_denied} is in force, even on an unlimited
    controller. *)

val set_denied : t -> bool -> unit
(** Fault-injection hook ({!Fault_plan}): while set, every {!request} is
    refused regardless of budget, modelling a transient
    memory-controller throttle. Cleared by the injector each cycle. *)

val sustains : t -> now:int -> cycles:int -> int list -> int
(** [sustains t ~now ~cycles bytes]: of [cycles] consecutive cycles
    from [now], each a {!begin_cycle} followed by a {!request} for every
    size in [bytes] in order, how many leading ones grant every request.
    Changes nothing. *)

val grant_rounds : t -> now:int -> cycles:int -> int list -> unit
(** Apply those [cycles] cycles at once, leaving the budget, refill
    cycle and granted bytes exactly where the per-cycle calls would.
    Every request must be granted ({!sustains} returned [cycles]). Both
    simulate the budget only until it reaches a fixed point. *)

val account : t -> int -> unit
(** Record [bytes] as granted without a budget check — for fast paths
    that have already established the controller is {!is_unlimited}. *)

val is_unlimited : t -> bool
(** True when the bytes-per-cycle budget is infinite. *)

val bytes_granted : t -> int
(** Total bytes granted over the run. *)
