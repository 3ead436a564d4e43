(** Shared fixed-size domain pools for embarrassingly-parallel work,
    and one spare domain per process for overlapping a single task.

    A pool is one FIFO of tasks popped by [workers] domains. Fault
    campaigns, autotune sweeps and probe arms run batches on it
    ({!map}); the serve tier submits one task per request ({!submit}).
    The spare ({!overlap}) is a one-worker pool of its own that a
    validated simulation hands its reference oracle to.

    {b Batches.} A batch is a shared claim counter: {!map} queues up to
    [workers] drainer tasks and drains on the calling domain too, and
    each drainer claims the next task index with one [fetch_and_add]
    until the batch runs out. The caller always drains its own batch, so
    a batch finishes even when every worker is busy, including a batch
    started from inside a task of the same pool.

    {b Determinism.} [map pool n f] computes [f i] for every [i] and
    returns the results indexed by [i]. Which domain computes which task
    varies, but as long as each [f i] is itself deterministic (no shared
    mutable state) the output is byte-identical to the serial loop. This
    is what keeps campaign reports and sweep tables the same under any
    [--jobs].

    {b Exceptions.} The first task exception (in completion order) is
    re-raised by [map] in the calling domain with its backtrace; the
    remaining tasks are claimed and dropped without running. The pool
    survives and can run further batches. *)

type t

val create : workers:int -> unit -> t
(** A pool with [workers] worker domains ([workers] is clamped to at
    least 0). With none, batches and submitted tasks run inline. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: what [--jobs 0] / "auto"
    resolves to. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map pool n f] is [Array.init n f] computed across the pool and the
    calling domain, with the determinism guarantee above. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map] over a list, preserving order. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue one task for asynchronous execution by a pool worker and
    return immediately. Completion is not signalled by the pool — the
    task communicates through its own side effects (typically a
    response queue). Tasks still queued at {!shutdown} run before the
    workers exit, so a submitted task always runs exactly once. A
    task's escaped exception kills its worker; the pool records the
    crash ({!crashes}) and spawns a replacement worker, so the pool's
    concurrency survives — but the task's remaining work is lost, so
    tasks that must answer someone should catch their own. On a pool
    with no workers the task runs inline before [submit] returns and
    its exception propagates to the submitter. Raises [Invalid_argument]
    after {!shutdown}. *)

val alive : t -> int
(** Worker domains currently running. Equals [workers] in steady state —
    crashed workers are respawned — and drops only transiently between a
    crash and its respawn, or permanently during {!shutdown}. *)

val crashes : t -> int
(** Cumulative count of workers killed by an escaped {!submit}-task
    exception (each was replaced unless the pool was shutting down).
    Surfaced by the serve tier's [health] verb. *)

val worker_index : unit -> int
(** The calling domain's worker number within its pool ([1 .. workers]),
    or [0] when the caller is not a pool worker (e.g. the submitting
    domain, or a task inlined by [submit] on a workerless pool) —
    telemetry for per-request worker attribution in serve responses. *)

val shutdown : t -> unit
(** Join the worker domains. The pool must not be used afterwards;
    idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** A pool of [jobs - 1] workers, so that with the calling domain [jobs]
    domains run its batches; [create], apply, then [shutdown] (also on
    exception). *)

val overlap : (unit -> 'a) -> (unit -> 'a) option
(** [overlap f] hands [f] to the process's one spare domain and returns
    [Some join]: [join ()], which the caller must call before it
    returns, waits for [f] and returns its result or re-raises its
    exception with its backtrace. [None], and the caller runs [f]
    itself, for a pool worker, on a one-core host, while the spare runs
    another caller's task, or when the spare cannot be spawned. *)

val spare_spawns : unit -> int
(** Domains started for the spare in this process: 0 or 1. *)
