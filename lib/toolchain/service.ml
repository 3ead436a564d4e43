module Json = Sf_support.Json
module Diag = Sf_support.Diag
module Store = Sf_support.Store
module Executor = Sf_support.Executor

let monotime = Sf_support.Util.monotime

type t = {
  cache : Cache.t;
  on_trace : (verb:string -> Pass_manager.trace -> unit) option;
  serve_jobs : int;
  queue_depth : int;
  ordered : bool;
  deadline_ms : int option;  (* server-wide default request budget *)
  disturb : (id:Json.t option -> unit) option;  (* chaos injection hook *)
  created_at : float;
  pool : Executor.t option Atomic.t;  (* live serve pool, for [health] *)
  cancels : (string, bool Atomic.t) Hashtbl.t;
  cancels_mu : Mutex.t;
}

let create ?(cache_capacity = 128) ?store_dir ?on_trace ?(serve_jobs = 1)
    ?(queue_depth = 64) ?(ordered = false) ?deadline_ms ?disturb () =
  let cache = Cache.create ~capacity:cache_capacity () in
  let cache =
    match store_dir with None -> cache | Some dir -> Cache.with_store cache (Store.open_ dir)
  in
  {
    cache;
    on_trace;
    serve_jobs = max 1 serve_jobs;
    queue_depth = max 1 queue_depth;
    ordered;
    deadline_ms = (match deadline_ms with Some ms when ms > 0 -> Some ms | _ -> None);
    disturb;
    created_at = monotime ();
    pool = Atomic.make None;
    cancels = Hashtbl.create 16;
    cancels_mu = Mutex.create ();
  }

let cache t = t.cache

(* Cancellation registry --------------------------------------------- *)

(* Requests are addressed by their client [id] (any JSON value, keyed by
   its minified rendering). A flag is registered at admission — before
   the request reaches a worker — so a [cancel] can hit a request that
   is still queued; the executing pipeline polls it at pass boundaries. *)

let cancel_key id = Json.to_string ~minify:true id

let register_cancel t id =
  let flag = Atomic.make false in
  let key = cancel_key id in
  Mutex.lock t.cancels_mu;
  Hashtbl.add t.cancels key flag;
  Mutex.unlock t.cancels_mu;
  (key, flag)

let unregister_cancel t key =
  Mutex.lock t.cancels_mu;
  Hashtbl.remove t.cancels key;
  Mutex.unlock t.cancels_mu

let request_cancel t id =
  Mutex.lock t.cancels_mu;
  let found =
    match Hashtbl.find_opt t.cancels (cancel_key id) with
    | Some flag ->
        Atomic.set flag true;
        true
    | None -> false
  in
  Mutex.unlock t.cancels_mu;
  found

(* Request parsing --------------------------------------------------- *)

type body =
  | Compile of Json.t  (* decoded by Request.of_json when it executes *)
  | Cache_stats
  | Evict
  | Cancel of Json.t option
  | Health
  | Shutdown
  | Invalid of Diag.t list

type request = {
  id : Json.t option;
  verb_name : string;
  body : body;
  deadline_ms : int option;  (* per-request override of the server default *)
}

let parse_request line =
  match Json.parse line with
  | Error e ->
      {
        id = None;
        verb_name = "error";
        body =
          Invalid
            [
              Diag.errorf ~code:Diag.Code.json_parse "malformed request: %s"
                (Json.error_to_string e);
            ];
        deadline_ms = None;
      }
  | Ok json -> (
      let id = Json.member "id" json in
      let deadline_ms = Option.bind (Json.member "deadline_ms" json) Json.int_opt in
      let req verb_name body = { id; verb_name; body; deadline_ms } in
      match Option.bind (Json.member "verb" json) Json.string_opt with
      | Some v when Request.verb_of_name v <> None -> req v (Compile json)
      | Some "cache-stats" -> req "cache-stats" Cache_stats
      | Some "evict" -> req "evict" Evict
      | Some "cancel" -> req "cancel" (Cancel (Json.member "target" json))
      | Some "health" -> req "health" Health
      | Some "shutdown" -> req "shutdown" Shutdown
      | Some other ->
          req other (Invalid [ Diag.errorf ~code:Diag.Code.format "unknown verb %S" other ])
      | None ->
          req "error" (Invalid [ Diag.error ~code:Diag.Code.format "request has no \"verb\"" ]))

(* The absolute monotonic deadline of a request admitted at [t_admit]:
   the request's own [deadline_ms] when present (negative disables even
   the server default — an explicit opt-out), else the server-wide
   [--deadline-ms] default, else none. *)
let deadline_of (t : t) req ~t_admit =
  match req.deadline_ms with
  | Some ms when ms >= 0 -> Some (t_admit +. (float_of_int ms /. 1000.))
  | Some _ -> None
  | None -> (
      match t.deadline_ms with
      | Some ms -> Some (t_admit +. (float_of_int ms /. 1000.))
      | None -> None)

(* Response encoding ------------------------------------------------- *)

let diags_json ds = Json.List (List.map Diag.to_json ds)

let passes_json (trace : Pass_manager.trace) =
  Json.Obj
    [
      ("executed", Json.Int (Pass_manager.executed_passes trace));
      ("cached", Json.Int (Pass_manager.cached_passes trace));
      ( "trace",
        Json.List
          (List.map
             (fun (t : Pass_manager.timing) ->
               Json.Obj
                 [
                   ("pass", Json.String t.Pass_manager.pass);
                   ("cached", Json.Bool t.Pass_manager.cached);
                 ])
             trace) );
    ]

let stats_json (s : Cache.stats) =
  Json.Obj
    [
      ("hits", Json.Int s.Cache.hits);
      ("misses", Json.Int s.Cache.misses);
      ("stale", Json.Int s.Cache.stale);
      ("evictions", Json.Int s.Cache.evictions);
      ("joined", Json.Int s.Cache.joined);
      ("store_corrupt", Json.Int s.Cache.store_corrupt);
      ("takeovers", Json.Int s.Cache.takeovers);
      ("entries", Json.Int s.Cache.entries);
    ]

(* Load-balancer probe payload. [in_flight] is supplied by the caller
   (the serve reader knows its admission counter; the synchronous
   [handle] path is always 0); worker liveness comes from the live pool
   when one is attached. *)
let health_json t ~in_flight =
  let stats = Cache.stats t.cache in
  let workers_alive, worker_crashes =
    match Atomic.get t.pool with
    | Some pool -> (Executor.alive pool, Executor.crashes pool)
    | None -> (0, 0)
  in
  Json.Obj
    [
      ("uptime_seconds", Json.Float (monotime () -. t.created_at));
      ("in_flight", Json.Int in_flight);
      ("serve_jobs", Json.Int t.serve_jobs);
      ("workers_alive", Json.Int workers_alive);
      ("worker_crashes", Json.Int worker_crashes);
      ("store_corrupt", Json.Int stats.Cache.store_corrupt);
      ("takeovers", Json.Int stats.Cache.takeovers);
      ("cache_entries", Json.Int stats.Cache.entries);
    ]

(* What this request did to the cache, derived from its own pass trace —
   unlike the global counters these deltas are race-free, so responses
   stay deterministic under concurrent execution. The global totals are
   only reported by the explicit [cache-stats] verb. *)
let trace_cache_json (trace : Pass_manager.trace) =
  let count p = List.length (List.filter p trace) in
  Json.Obj
    [
      ( "hits",
        Json.Int (count (fun t -> t.Pass_manager.cached && not t.Pass_manager.joined)) );
      ("misses", Json.Int (count (fun t -> t.Pass_manager.missed)));
      ("joined", Json.Int (count (fun t -> t.Pass_manager.joined)));
    ]

(* Request execution ------------------------------------------------- *)

type reply = {
  ok : bool;
  result : Json.t;
  diags : Diag.t list;
  trace : Pass_manager.trace;
  control : [ `Continue | `Stop ];
}

let reply ?(ok = true) ?(result = Json.Null) ?(diags = []) ?(trace = [])
    ?(control = `Continue) () =
  { ok; result; diags; trace; control }

type timing = { seconds : float; queue_seconds : float; exec_seconds : float; worker : int }

let render ?seq ~id ~verb ~timing reply =
  Json.to_string ~minify:true
    (Json.Obj
       ((match id with Some id -> [ ("id", id) ] | None -> [])
       @ (match seq with Some n -> [ ("seq", Json.Int n) ] | None -> [])
       @ [
           ("verb", Json.String verb);
           ("ok", Json.Bool reply.ok);
           ("result", reply.result);
           ("diagnostics", diags_json reply.diags);
           ("passes", passes_json reply.trace);
           ("cache", trace_cache_json reply.trace);
           ( "timing",
             Json.Obj
               [
                 ("seconds", Json.Float timing.seconds);
                 ("queue_seconds", Json.Float timing.queue_seconds);
                 ("exec_seconds", Json.Float timing.exec_seconds);
                 ("worker", Json.Int timing.worker);
               ] );
         ]))

let compile_verb t ~should_stop ?deadline ~name json =
  match Request.of_json json with
  | Error ds -> reply ~ok:false ~diags:ds ()
  | Ok request -> (
      let emit_trace trace = match t.on_trace with Some f -> f ~verb:name trace | None -> () in
      match Request.run ~cache:t.cache ~should_stop ?deadline request with
      | Ok (ctx, trace) ->
          emit_trace trace;
          let ok = not (Diag.has_errors ctx.Ctx.diags) in
          reply ~ok ~result:(Request.result_json request ctx) ~diags:ctx.Ctx.diags ~trace ()
      | Error (ds, trace) ->
          emit_trace trace;
          reply ~ok:false ~diags:ds ~trace ())

let cancel_reply t target =
  match target with
  | None ->
      reply ~ok:false
        ~diags:[ Diag.error ~code:Diag.Code.format "cancel needs a \"target\" id" ]
        ()
  | Some target ->
      let found = request_cancel t target in
      reply ~result:(Json.Obj [ ("target", target); ("found", Json.Bool found) ]) ()

let run_request t ~should_stop ?deadline ?(in_flight = 0) req =
  match req.body with
  | Compile json -> compile_verb t ~should_stop ?deadline ~name:req.verb_name json
  | Cache_stats -> reply ~result:(stats_json (Cache.stats t.cache)) ()
  | Evict ->
      let dropped = (Cache.stats t.cache).Cache.entries in
      Cache.clear t.cache;
      reply ~result:(Json.Obj [ ("entries_dropped", Json.Int dropped) ]) ()
  | Cancel target -> cancel_reply t target
  | Health -> reply ~result:(health_json t ~in_flight) ()
  | Shutdown -> reply ~control:`Stop ()
  | Invalid ds -> reply ~ok:false ~diags:ds ()

(* Compile verbs register their cancel flag at admission — before the
   request reaches a worker — so a [cancel] can hit a queued request. *)
let admit t req =
  match (req.id, req.body) with
  | Some id, Compile _ -> Some (register_cancel t id)
  | _ -> None

(* The one execution path of an admitted request, shared by [handle] and
   the pool workers: cancel polling, the deadline, crash isolation and
   timing around [run_request]. *)
let execute t req ~t_admit registration =
  let t_start = monotime () in
  let should_stop =
    match registration with
    | Some (_, flag) -> fun () -> Atomic.get flag
    | None -> fun () -> false
  in
  let rep =
    (* Crash isolation: whatever escapes the request — including a chaos
       [disturb] injection — becomes an SF0905 response with the
       backtrace attached, never a dead worker or a dropped reply. *)
    try
      (match t.disturb with Some f -> f ~id:req.id | None -> ());
      run_request t ~should_stop ?deadline:(deadline_of t req ~t_admit) req
    with exn ->
      let bt = Printexc.get_backtrace () in
      let notes = if bt = "" then [] else [ "backtrace: " ^ bt ] in
      reply ~ok:false
        ~diags:
          [
            Diag.errorf ~notes ~code:Diag.Code.serve_internal "request raised: %s"
              (Printexc.to_string exn);
          ]
        ()
  in
  (match registration with Some (key, _) -> unregister_cancel t key | None -> ());
  let t_end = monotime () in
  let timing =
    {
      seconds = t_end -. t_admit;
      queue_seconds = t_start -. t_admit;
      exec_seconds = t_end -. t_start;
      worker = Executor.worker_index ();
    }
  in
  (rep, timing)

let handle t line =
  let t_admit = monotime () in
  let req = parse_request line in
  let rep, timing = execute t req ~t_admit (admit t req) in
  (render ~id:req.id ~verb:req.verb_name ~timing rep, rep.control)

(* The concurrent serve loop ----------------------------------------- *)

(* Three roles share the session:

   - the {e reader} (the calling domain) parses each line, admits it —
     or rejects it with [SF0903] when [queue_depth] requests are already
     in flight — and submits admitted work to the pool. Cheap control
     verbs ([cancel], [shutdown], malformed lines) are answered by the
     reader directly so a busy pool cannot delay them (a [cancel] that
     queued behind its target would be useless);
   - the {e pool} ([serve_jobs] workers) executes requests;
   - the {e writer} (one domain) is the only role touching [oc]: it
     serializes completed responses, assigns the monotone [seq] at write
     time, and in [ordered] mode buffers out-of-order completions until
     every earlier admission has been written.

   [busy] counts admitted-but-uncompleted pool requests: the admission
   bound, and the writer's liveness criterion (it exits once the reader
   closed, [busy] is zero and the queue is drained). *)

type sched = {
  mu : Mutex.t;
  cv : Condition.t;
  out : (int * (seq:int -> string)) Queue.t;  (* admission index, renderer *)
  mutable busy : int;
  mutable closed : bool;
}

let enqueue sched admitted render =
  Mutex.lock sched.mu;
  Queue.push (admitted, render) sched.out;
  Condition.broadcast sched.cv;
  Mutex.unlock sched.mu

let complete sched admitted render =
  Mutex.lock sched.mu;
  sched.busy <- sched.busy - 1;
  Queue.push (admitted, render) sched.out;
  Condition.broadcast sched.cv;
  Mutex.unlock sched.mu

let writer_loop ~ordered sched oc =
  let next_seq = ref 0 in
  let buffer = Hashtbl.create 16 in
  let next_admitted = ref 0 in
  (* A client hanging up mid-stream surfaces here as [Sys_error]
     (EPIPE/closed fd). That is a normal way for a session to end, not a
     crash: mark the sink dead and keep draining the queue silently so
     workers' [complete] calls never block and the loop unwinds
     cleanly. *)
  let dead = ref false in
  let emit render =
    let seq = !next_seq in
    incr next_seq;
    if not !dead then
      try
        Out_channel.output_string oc (render ~seq);
        Out_channel.output_char oc '\n';
        Out_channel.flush oc
      with Sys_error _ -> dead := true
  in
  let rec flush_ordered () =
    match Hashtbl.find_opt buffer !next_admitted with
    | Some render ->
        Hashtbl.remove buffer !next_admitted;
        incr next_admitted;
        emit render;
        flush_ordered ()
    | None -> ()
  in
  let rec loop () =
    Mutex.lock sched.mu;
    while Queue.is_empty sched.out && not (sched.closed && sched.busy = 0) do
      Condition.wait sched.cv sched.mu
    done;
    if Queue.is_empty sched.out then Mutex.unlock sched.mu
    else begin
      let admitted, render = Queue.pop sched.out in
      Mutex.unlock sched.mu;
      if ordered then begin
        Hashtbl.replace buffer admitted render;
        flush_ordered ()
      end
      else emit render;
      loop ()
    end
  in
  loop ()

let serve_loop t ic oc =
  let pool = Executor.create ~workers:t.serve_jobs () in
  Atomic.set t.pool (Some pool);
  let sched =
    { mu = Mutex.create (); cv = Condition.create (); out = Queue.create (); busy = 0;
      closed = false }
  in
  let writer = Domain.spawn (fun () -> writer_loop ~ordered:t.ordered sched oc) in
  let admitted = ref 0 in
  let rec loop () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line -> (
        let t_admit = monotime () in
        let req = parse_request line in
        let n = !admitted in
        incr admitted;
        let quick rep =
          let dt = monotime () -. t_admit in
          let timing = { seconds = dt; queue_seconds = 0.; exec_seconds = dt; worker = 0 } in
          enqueue sched n (fun ~seq -> render ~seq ~id:req.id ~verb:req.verb_name ~timing rep)
        in
        match req.body with
        | Shutdown ->
            (* Answered by the reader; the writer still drains every
               admitted request before the session ends. *)
            quick (reply ~control:`Stop ())
        | Cancel target ->
            quick (cancel_reply t target);
            loop ()
        | Health ->
            (* Answered by the reader so a saturated pool cannot starve
               a load-balancer probe — that is the whole point of it. *)
            Mutex.lock sched.mu;
            let in_flight = sched.busy in
            Mutex.unlock sched.mu;
            quick (reply ~result:(health_json t ~in_flight) ());
            loop ()
        | Invalid ds ->
            quick (reply ~ok:false ~diags:ds ());
            loop ()
        | Compile _ | Cache_stats | Evict ->
            Mutex.lock sched.mu;
            let full = sched.busy >= t.queue_depth in
            if not full then sched.busy <- sched.busy + 1;
            Mutex.unlock sched.mu;
            if full then
              quick
                (reply ~ok:false
                   ~diags:
                     [
                       Diag.errorf ~code:Diag.Code.overload
                         "server overloaded: %d request(s) already in flight (queue depth %d)"
                         t.queue_depth t.queue_depth;
                     ]
                   ())
            else begin
              let registration = admit t req in
              Executor.submit pool (fun () ->
                  let rep, timing = execute t req ~t_admit registration in
                  complete sched n (fun ~seq ->
                      render ~seq ~id:req.id ~verb:req.verb_name ~timing rep))
            end;
            loop ())
  in
  loop ();
  Mutex.lock sched.mu;
  sched.closed <- true;
  Condition.broadcast sched.cv;
  Mutex.unlock sched.mu;
  Domain.join writer;
  Executor.shutdown pool
