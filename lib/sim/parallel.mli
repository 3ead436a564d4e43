(** Domain-parallel multi-device simulation (conservative PDES with
    link-latency lookahead).

    The sequential {!Engine} runs every device in one cycle loop, so
    multi-device runs get slower as the simulated system gets bigger.
    This engine instead spawns one OCaml domain per device, each running
    the engine's own scheduler ({!Engine.Internal.scheduler}) over that
    device's units, channels, readers, writers, memory controller and
    link halves. Domains synchronize only at link boundaries:
    inter-device traffic takes at least [net_latency_cycles] (= the
    lookahead L) to arrive, so a device may advance to cycle [t] once
    every upstream device's clock has passed [t - L] — everything that
    can influence it by then is already in the port's lock-free
    {!Spsc} ring. Run-ahead past downstream devices is throttled to a
    window of several lookaheads so rings stay bounded, and each advance
    (fast-forward windows included) is capped at one lookahead, after
    which the domain publishes its clock; blocked domains back off
    exponentially, or park
    immediately when the spawned domains outnumber
    {!Engine.Config.parallelism.host_jobs}, a throughput knob only.

    {b Determinism.} Results are bit-identical and cycle-identical to
    {!Engine.run_exn} for every placement: same cycle count, outputs,
    stall totals, channel high-water marks and byte counters (pinned by
    test/test_parallel.ml against the engine parity fixture). Each
    channel is owned by exactly one domain, each domain replays the
    seed's per-cycle component order, and the L >= 1 lookahead makes the
    cross-domain exchange commute with the local schedule — which is why
    {!decide} rejects zero-latency links.

    {b Fallback.} Configurations whose semantics are inherently global —
    instrumented telemetry, occupancy tracing, a single-device
    placement, or opposite-direction traffic sharing a finite link
    budget — degrade to the sequential engine (same results, no idle
    domains spawned). A run that deadlocks, times out, or aborts is
    re-run sequentially to reproduce the exact SF0701/SF0703
    diagnostics. See docs/SIMULATOR.md, "Parallel execution". *)

type decision =
  [ `Parallel of int  (** Would spawn this many communicating domains. *)
  | `Degrade of string
    (** Would run sequentially, with the human-readable reason. *)
  | `Reject of Sf_support.Diag.t
    (** Invalid parallel configuration ([SF0704]): the placement crosses
        devices but [net_latency_cycles < 1] leaves no lookahead. *)
  ]

val decide :
  config:Engine.config -> placement:(string -> int) -> Sf_ir.Program.t -> decision
(** How {!run_exn} would execute this program: parallel, sequential
    fallback, or rejection. Pure — nothing is built or spawned. *)

val run_exn :
  ?config:Engine.config ->
  ?placement:(string -> int) ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  Sf_ir.Program.t ->
  Engine.outcome
(** Drop-in replacement for {!Engine.run_exn} that honours
    [config.parallelism]. With [`Sequential] mode (the default) or a
    [`Degrade] decision this is exactly {!Engine.run_exn}. Raises
    [Invalid_argument] on a [`Reject] decision and on malformed
    programs. *)

val run :
  ?config:Engine.config ->
  ?placement:(string -> int) ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  Sf_ir.Program.t ->
  (Engine.stats, Sf_support.Diag.t) result
(** {!run_exn} with structured failure, mirroring {!Engine.run}:
    deadlock [SF0701], timeout [SF0703], invalid parallel configuration
    [SF0704]. *)

val run_and_validate :
  ?config:Engine.config ->
  ?placement:(string -> int) ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  Sf_ir.Program.t ->
  (Engine.stats, Sf_support.Diag.t) result
(** {!run}, then compare every output against the reference interpreter
    (mismatch [SF0702]), mirroring {!Engine.run_and_validate}. *)
