(** Instrumented execution of a declared pass list.

    {!run} applies passes over a {!Ctx.t} in order, recording per-pass
    wall-clock time and artifact-size counters, invoking dump hooks
    between passes (the [--dump-ir] mechanism), and checking artifact
    invariants after every executed pass, over the slots it wrote (a
    slot now holding a value it did not hold before): a written program
    still validates ([SF0301]), a written analysis has no negative
    delay-buffer depth ([SF0401]), and after a write to the program or
    the partition the partition is structurally sound ([SF0502]) and
    fits the device (a deduplicated warning when it does not — the
    single-device fallback intentionally overflows). A pass returning [Error] (or an
    invariant error) aborts the pipeline; the timings of all executed
    passes, including the failing one, are still reported.

    Passes declare the {!Ctx.slot}s they read and write. When {!run} is
    given a {!Cache.t}, each cacheable pass is first looked up by its
    content key (pass name + options fingerprint + read-slot
    fingerprints); a hit replays the stored write slots and diagnostics
    instead of executing, and a miss stores them after the invariants
    pass. Failed executions are never cached. *)

type kind = Frontend | Transform | Analysis | Mapping | Codegen | Simulation | Other

val kind_to_string : kind -> string

type pass = {
  name : string;
  description : string;
  kind : kind;
  reads : Ctx.packed list;
      (** Slots whose content the pass depends on — the cache key. *)
  writes : Ctx.packed list;
      (** Slots the pass may install, captured into cache entries in
          this order (list the program slot first: installing it
          invalidates derived slots). *)
  fingerprint : unit -> Sf_support.Fingerprint.t option;
      (** Digest of the pass's captured options (closure arguments);
          [None] marks the pass uncacheable. *)
  run : Ctx.t -> (Ctx.t, Sf_support.Diag.t list) result;
}

val make_pass :
  ?reads:Ctx.packed list ->
  ?writes:Ctx.packed list ->
  ?fingerprint:(unit -> Sf_support.Fingerprint.t option) ->
  name:string ->
  description:string ->
  kind:kind ->
  (Ctx.t -> (Ctx.t, Sf_support.Diag.t list) result) ->
  pass
(** Construct a pass. The defaults ([reads]/[writes] empty, no
    fingerprint) make it uncacheable, which is always sound. *)

type timing = {
  pass : string;
  kind : kind;
  seconds : float;
  counters_before : (string * int) list Lazy.t;
  counters_after : (string * int) list Lazy.t;
      (** {!Ctx.counters} before and after the pass, computed only when
          forced (by {!pp_trace}, a hook or a test). Force them from one
          domain at a time. *)
  ok : bool;  (** False for the pass that aborted the pipeline. *)
  cached : bool;  (** True when the pass was replayed from the cache. *)
  joined : bool;
      (** True when the replayed entry came from waiting on a concurrent
          execution of the same key (single-flight deduplication) rather
          than from an already-published entry. Implies [cached]. *)
  missed : bool;
      (** True when the pass was cacheable, missed, and executed as the
          flight leader (its result was published on success). *)
}

type trace = timing list
(** One entry per executed pass, in execution order. *)

type hooks = {
  on_pass : (timing -> unit) option;
      (** Called after each pass completes (successfully or not). *)
  dump : (index:int -> pass:string -> Ctx.t -> unit) option;
      (** Called with the post-pass context after each successful pass;
          see {!Passes.dump_hook}. *)
}

val no_hooks : hooks

val run :
  ?hooks:hooks ->
  ?cache:Cache.t ->
  ?should_stop:(unit -> bool) ->
  ?deadline:float ->
  pass list ->
  Ctx.t ->
  (Ctx.t * trace, Sf_support.Diag.t list * trace) result
(** Run the passes in order. [Ok] carries the final context (whose
    [diags] field holds accumulated warnings) and the trace; [Error]
    carries the diagnostics of the failing pass or invariant and the
    trace up to and including it. A pass raising an exception becomes an
    [SF0901] diagnostic rather than escaping. With [cache], cacheable
    passes are replayed on a content-key hit (their trace entries have
    [cached = true]) and stored on a miss via the single-flight protocol
    — concurrent [run]s over a shared cache execute each distinct key
    once, and failed or cancelled executions abandon their flight so
    they never poison the cache. [should_stop] is polled before each
    pass (default: never); when it returns [true] the pipeline aborts
    with an [SF0902] cancellation error — a pass either runs to
    completion or not at all. [deadline] (an absolute
    {!Sf_support.Util.monotime}, default: none) is charged only against
    passes that would actually execute: cache replays are free, but a
    pass that must run (or lead a flight) after the deadline aborts the
    pipeline with [SF0904] instead — completed passes stay cached, so a
    retry resumes from the abandoned pass. The deadline also bounds
    single-flight waits (see {!Cache.acquire}). *)

val pp_trace : Format.formatter -> trace -> unit
(** The [--trace-passes] rendering: one line per pass with its kind,
    wall-clock time, a [\[cached\]] marker for replayed passes, and the
    artifact counters it changed. *)

val cached_passes : trace -> int
(** Passes replayed from the cache. *)

val executed_passes : trace -> int
(** Passes actually executed (not replayed). *)
