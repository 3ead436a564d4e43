(** Content-addressed cache of pass executions — thread-safe, with
    single-flight deduplication.

    A cache entry records what one pass produced — the values of its
    declared write slots plus the diagnostics it emitted — keyed by a
    digest of everything the execution could depend on: the pass name,
    a fingerprint of its options, and the fingerprints of its read
    slots (see {!key}). Two executions with equal keys are guaranteed
    (up to hash collisions) to produce identical artifacts, so
    {!Pass_manager.run} can replay the entry instead of running the
    pass.

    Entries live in a bounded in-memory LRU; with {!with_store} they
    are additionally written through to an on-disk {!Sf_support.Store},
    so a fresh process (or the [serve] daemon after a restart) starts
    warm. Disk blobs are [Marshal]-serialized per slot and guarded by
    the store's schema version; any deserialization failure counts as
    [stale] and falls back to executing the pass — the cache is an
    accelerator, never a correctness dependency.

    {b Concurrency.} Every operation is safe to call from any domain:
    lookups, insertions, [stats] and [clear] synchronize on one
    internal mutex (held only for table operations, never for blob
    IO). Lookup follows a {e single-flight} protocol: {!acquire}
    returns [Miss flight] to exactly one caller per key — the leader,
    who must execute the pass and then {!fulfill} (publish) or
    {!abandon} (failed / cancelled — never published) the flight.
    Concurrent acquirers of the same key block until the flight
    settles and get [Joined entry], so a fleet replaying near-identical
    requests executes each distinct pass once. *)

type binding = B : 'a Ctx.slot * 'a * Ctx.digest -> binding
(** One write-slot value captured from a pass execution, with its
    content digest. The digest is shared with the contexts that hold the
    value, so it is computed at most once while the entry lives; an entry
    loaded from the store starts with an empty digest, filled on first
    use (the blob format carries no digests). *)

type entry = {
  bindings : binding list;  (** Write slots, in declaration order. *)
  diags : Sf_support.Diag.t list;
      (** Diagnostics the execution appended, replayed on a hit. *)
}

type t

val create : ?capacity:int -> unit -> t
(** In-memory LRU holding at most [capacity] entries (default 128). *)

val with_store : t -> Sf_support.Store.t -> t
(** Attach a write-through (and read-miss fallback) [store]; returns
    the same cache. *)

val key :
  pass_name:string ->
  options_fp:Sf_support.Fingerprint.t option ->
  reads:Ctx.packed list ->
  Ctx.t ->
  Sf_support.Fingerprint.t
(** The cache key of executing [pass_name] (with options digesting to
    [options_fp]) against the current content of [reads] in [ctx], read
    through {!Ctx.kept_fingerprint}: a value's digest is computed once
    and then carried with it. Absent read slots contribute a distinct
    absence marker, so "ran before the artifact existed" and "ran
    against artifact X" never collide. *)

type flight
(** A claimed in-progress execution. The holder must settle it with
    {!fulfill} or {!abandon} — leaking one blocks every later acquirer
    of its key forever. *)

type outcome =
  | Hit of entry  (** Found in memory or promoted from the store. *)
  | Joined of entry
      (** Deduplicated: a concurrent execution of the same key finished
          while this caller waited. *)
  | Miss of flight
      (** This caller leads: execute, then {!fulfill} or {!abandon}. *)

val acquire : ?wait_until:float -> t -> Sf_support.Fingerprint.t -> outcome
(** Look the key up (memory first, then the store — a disk hit is
    promoted to memory and settles the flight for any waiters; a blob
    failing its checksum is counted in [store_corrupt] and treated as a
    miss), joining an in-progress execution if one exists. Blocks only
    while waiting on a leader, normally for as long as the leader
    executes. With [wait_until] (an absolute {!Sf_support.Util.monotime}
    bound) the flight-wait is bounded: if the leader has not settled by
    then, this caller {e takes over} — the stalled flight is
    unregistered and a fresh one returned as [Miss], so a crashed or
    wedged leader can never park waiters forever. A stale leader
    settling after a takeover only wakes its own waiters; it cannot
    disturb the new flight. Updates the hit/miss/stale/joined/takeover
    counters. *)

val fulfill : t -> flight -> entry -> unit
(** Publish the leader's result: insert into memory (evicting LRU when
    full), write through to the store when attached, and wake every
    waiter with [Joined entry]. *)

val abandon : t -> flight -> unit
(** Settle the flight without publishing (the execution failed or was
    cancelled). Waiters retry; the first one becomes the new leader. *)

type stats = {
  hits : int;
  misses : int;
  stale : int;
  evictions : int;
  joined : int;  (** Executions deduplicated by single-flight waiting. *)
  store_corrupt : int;
      (** Store blobs that failed their checksum trailer (each was
          quarantined and served as a miss). *)
  takeovers : int;
      (** Bounded flight-waits that expired and took over a stalled
          leader's flight. *)
  entries : int;
}

val stats : t -> stats

val clear : t -> unit
(** Drop every in-memory entry and delete the store's blobs; counters
    are reset. In-progress flights are unaffected and settle into the
    cleared table. *)
