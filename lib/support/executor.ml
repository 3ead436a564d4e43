(* Fixed domain pool around one FIFO of tasks.

   Workers only pop the FIFO. A batch is a shared claim counter: [map]
   pushes up to [workers] drainer closures, then drains on the calling
   domain too, and every drainer claims indices with one
   [fetch_and_add] until the batch runs out. The caller then waits for
   the claimed tasks to finish. Because the caller claims whatever no
   worker has, a batch completes even when every worker is busy with
   other tasks, including the task that started the batch. *)

type t = {
  workers : int;  (* spawned worker domains, 0 = every task runs inline *)
  mu : Mutex.t;
  work_cv : Condition.t;  (* workers wait here for a task *)
  tasks : (unit -> unit) Queue.t;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
  mutable live : int;  (* spawned worker domains currently running *)
  mutable crashes : int;  (* workers killed by an escaped task exception *)
}

let default_jobs () = Domain.recommended_domain_count ()

(* Which pool worker the current domain is (0 = a domain that is not a
   pool worker, e.g. the submitter). Set once per worker at spawn. *)
let worker_key = Domain.DLS.new_key (fun () -> 0)
let worker_index () = Domain.DLS.get worker_key

(* A worker pops the FIFO until it is empty and the pool is stopped, so
   tasks still queued at shutdown run before the workers exit. A task's
   exception propagates out of [worker] and kills this domain; the crash
   guard in [spawn_worker] accounts for it and spawns a replacement. *)
let worker pool me () =
  Domain.DLS.set worker_key me;
  let rec loop () =
    Mutex.lock pool.mu;
    while Queue.is_empty pool.tasks && not pool.stopped do
      Condition.wait pool.work_cv pool.mu
    done;
    match Queue.take_opt pool.tasks with
    | None -> Mutex.unlock pool.mu
    | Some f ->
        Mutex.unlock pool.mu;
        f ();
        loop ()
  in
  loop ()

(* Spawn worker [me] under a crash guard: if a submitted task's
   exception escapes and kills the worker, record the crash and spawn a
   replacement (same worker number) unless the pool is shutting down.
   The dying domain itself terminates normally, so [shutdown]'s joins
   never re-raise. *)
let rec spawn_worker pool me =
  Domain.spawn (fun () ->
      match worker pool me () with
      | () ->
          Mutex.lock pool.mu;
          pool.live <- pool.live - 1;
          Mutex.unlock pool.mu
      | exception _ ->
          Mutex.lock pool.mu;
          pool.live <- pool.live - 1;
          pool.crashes <- pool.crashes + 1;
          if not pool.stopped then begin
            pool.live <- pool.live + 1;
            pool.domains <- spawn_worker pool me :: pool.domains
          end;
          Mutex.unlock pool.mu)

let create ~workers () =
  let workers = max 0 workers in
  let pool =
    {
      workers;
      mu = Mutex.create ();
      work_cv = Condition.create ();
      tasks = Queue.create ();
      stopped = false;
      domains = [];
      live = workers;
      crashes = 0;
    }
  in
  pool.domains <- List.init workers (fun k -> spawn_worker pool (k + 1));
  pool

let alive t =
  Mutex.lock t.mu;
  let n = t.live in
  Mutex.unlock t.mu;
  n

let crashes t =
  Mutex.lock t.mu;
  let n = t.crashes in
  Mutex.unlock t.mu;
  n

let submit t f =
  Mutex.lock t.mu;
  if t.stopped then begin
    Mutex.unlock t.mu;
    invalid_arg "Executor.submit: pool is shut down"
  end
  else if t.workers = 0 then begin
    Mutex.unlock t.mu;
    f ()
  end
  else begin
    Queue.push f t.tasks;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.mu
  end

let shutdown t =
  Mutex.lock t.mu;
  let ds = t.domains in
  t.stopped <- true;
  t.domains <- [];
  Condition.broadcast t.work_cv;
  Mutex.unlock t.mu;
  List.iter Domain.join ds

type batch = {
  n : int;
  work : int -> unit;
  next : int Atomic.t;  (* next unclaimed index *)
  pending : int Atomic.t;  (* tasks not yet run or dropped *)
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
  finished : Condition.t;  (* broadcast under the pool mutex at pending = 0 *)
}

(* Claim and run indices until the batch runs out. After a failure the
   remaining indices are still claimed, so [pending] drains, but no
   longer run. *)
let rec drain pool b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.n then begin
    (if Option.is_none (Atomic.get b.failed) then
       try b.work i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set b.failed None (Some (e, bt))));
    if Atomic.fetch_and_add b.pending (-1) = 1 then begin
      Mutex.lock pool.mu;
      Condition.broadcast b.finished;
      Mutex.unlock pool.mu
    end;
    drain pool b
  end

let map pool n f =
  if pool.stopped then invalid_arg "Executor.map: pool is shut down";
  let results = Array.make n None in
  let b =
    {
      n;
      work = (fun i -> results.(i) <- Some (f i));
      next = Atomic.make 0;
      pending = Atomic.make n;
      failed = Atomic.make None;
      finished = Condition.create ();
    }
  in
  for _ = 1 to min pool.workers (n - 1) do
    submit pool (fun () -> drain pool b)
  done;
  drain pool b;
  Mutex.lock pool.mu;
  while Atomic.get b.pending > 0 do
    Condition.wait b.finished pool.mu
  done;
  Mutex.unlock pool.mu;
  match Atomic.get b.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> Array.map Option.get results

let map_list pool f xs =
  let arr = Array.of_list xs in
  Array.to_list (map pool (Array.length arr) (fun i -> f arr.(i)))

let with_pool ~jobs f =
  let pool = create ~workers:(jobs - 1) () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* The spare: a one-worker pool, created by the first [overlap] that
   can use it. A caller claims [spare_busy] before it hands the spare a
   task, so only one caller at a time forces [spare]; the task releases
   the claim as it stores its outcome, so a caller that has joined
   finds the spare free. *)
let spare = lazy (create ~workers:1 ())
let spare_busy = Atomic.make false
let spare_spawns () = if Lazy.is_val spare then 1 else 0

let overlap f =
  if
    worker_index () > 0
    || Domain.recommended_domain_count () < 2
    || not (Atomic.compare_and_set spare_busy false true)
  then None
  else
    match Lazy.force spare with
    | exception _ ->
        Atomic.set spare_busy false;
        None
    | pool ->
        let outcome = ref None and stored = Condition.create () in
        submit pool (fun () ->
            let r = try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ()) in
            Mutex.protect pool.mu (fun () ->
                Atomic.set spare_busy false;
                outcome := Some r;
                Condition.signal stored));
        Some
          (fun () ->
            Mutex.protect pool.mu (fun () ->
                while Option.is_none !outcome do
                  Condition.wait stored pool.mu
                done);
            match Option.get !outcome with
            | Ok v -> v
            | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
