(** The [stencilflow serve] request loop — a concurrent scheduler over
    one shared, thread-safe pass cache.

    A service holds one {!Cache.t} (optionally disk-backed) and executes
    newline-delimited JSON requests against it, so a design-space
    exploration loop pays the full pipeline once and near-zero for every
    repeated or incremental request afterwards. {!serve_loop} runs three
    roles: a {e reader} (the calling domain) that parses and admits
    requests, a pool of [serve_jobs] worker domains that execute them
    concurrently, and a single {e writer} domain that serializes the
    responses — concurrent identical requests collapse onto one pass
    execution through the cache's single-flight protocol.

    {2 Protocol}

    One request per line, one response per line (minified JSON).
    Requests:

    {v
    {"id": <any>,              // optional, echoed back verbatim
     "verb": "analyze" | "simulate" | "codegen"
           | "cache-stats" | "evict" | "cancel" | "health" | "shutdown",
     "target": <id>,           // cancel only: the id to cancel
     "deadline_ms": int,       // per-request budget; overrides the
                               // --deadline-ms default, < 0 disables it
     "program": {...},         // compile verbs: a {!Request.t}, see
     "program_file": "path",   // {!Request.of_json} for these and
     "options": {...}}         // the option defaults
    v}

    Responses:

    {v
    {"id": ..., "seq": n, "verb": ..., "ok": bool,
     "result": <verb-specific payload>,
     "diagnostics": [...],     // SF-coded, same shape as --diag-json
     "passes": {"executed": n, "cached": n,
                "trace": [{"pass": name, "cached": bool}, ...]},
     "cache": {"hits": n, "misses": n, "joined": n},  // this request only
     "timing": {"seconds": s,          // admission to completion
                "queue_seconds": s,    // waiting for a free worker
                "exec_seconds": s,     // executing
                "worker": n}}          // 1..serve_jobs, 0 = reader
    v}

    {2 Ordering and [seq]}

    Responses are written as requests complete — out of order when
    [serve_jobs > 1]. Every response carries the monotone [seq] in which
    the writer emitted it plus the client's [id], so clients can
    correlate either way; with [ordered = true] (the [--ordered] flag)
    the writer buffers completions and emits responses in admission
    (request) order, making [seq] coincide with it.

    {2 Cancellation and overload}

    [{"verb": "cancel", "target": <id>}] flags the in-flight request
    whose [id] equals [target] (compared structurally); its pipeline
    stops at the next pass boundary and it answers [ok: false] with an
    [SF0902] diagnostic — partial results are never published to the
    cache. The cancel response reports whether the target was found
    still in flight.

    When [queue_depth] requests are already admitted and uncompleted,
    further pool verbs are rejected immediately with [ok: false] and an
    [SF0903] diagnostic. Control verbs ([cancel], [shutdown]) and
    malformed lines are answered by the reader directly and are never
    rejected for overload.

    Malformed lines produce an [ok: false] response with an [SF0201]
    diagnostic; unknown verbs and missing programs report [SF0203]. The
    loop never dies on a bad request — only on end of input or an
    explicit [shutdown] (which still drains every admitted request).

    {2 Robustness}

    A request whose deadline (its own [deadline_ms], else the server's
    [--deadline-ms] default) expires before a pass that would actually
    execute answers [ok: false] with [SF0904] — cached replays are free,
    and the passes completed before the deadline stay cached, so a retry
    resumes where the budget ran out. An exception escaping a request
    (or injected by the chaos hook, see {!Chaos}) answers [SF0905] with
    the backtrace attached as a note instead of killing the worker; the
    pool respawns any worker that does die. [{"verb": "health"}] is
    answered by the reader directly — even with the pool saturated —
    with uptime, in-flight count, worker liveness/crash counters and the
    cache's integrity counters ([store_corrupt], [takeovers]). A client
    that hangs up mid-stream (EPIPE) ends the session cleanly: the
    writer marks its sink dead and drains remaining completions without
    writing. *)

type t

val create :
  ?cache_capacity:int ->
  ?store_dir:string ->
  ?on_trace:(verb:string -> Pass_manager.trace -> unit) ->
  ?serve_jobs:int ->
  ?queue_depth:int ->
  ?ordered:bool ->
  ?deadline_ms:int ->
  ?disturb:(id:Sf_support.Json.t option -> unit) ->
  unit ->
  t
(** A fresh service: an in-memory LRU of [cache_capacity] entries
    (default 128), backed by an on-disk {!Sf_support.Store} rooted at
    [store_dir] when given. [on_trace] observes every compile verb's
    pass trace (the CLI's [--trace-passes]) and must be thread-safe when
    [serve_jobs > 1]. [serve_jobs] (default 1)
    sizes the worker pool, [queue_depth] (default 64) bounds admitted
    uncompleted requests, [ordered] (default false) restores FIFO
    response order. [deadline_ms] (default none; [<= 0] means none) is
    the default per-request budget, overridable per request. [disturb]
    is the chaos-injection hook: called with the request's [id] at the
    start of every execution; whatever it raises is crash-isolated into
    an [SF0905] response ({!Chaos} uses this to inject seeded
    worker exceptions and slow passes). *)

val cache : t -> Cache.t

val handle : t -> string -> string * [ `Continue | `Stop ]
(** Execute one request line synchronously in the calling domain —
    through the same run function as the pool workers (cancel flag,
    deadline, crash isolation, timing) — and return the minified
    response line (without a [seq] field — sequence
    numbers exist only on the writer path), plus whether a serve loop
    should keep running ([`Stop] only after [shutdown]). Thread-safe:
    any number of domains may call [handle] on one service concurrently.
    Exposed for in-process tests and benchmarks. *)

val serve_loop : t -> in_channel -> out_channel -> unit
(** Read request lines until EOF or [shutdown], executing admitted
    requests on [serve_jobs] worker domains and writing (and flushing)
    one response line each from a single writer domain. Blank lines are
    ignored. Returns once every admitted request has been answered and
    the workers have been joined. *)
