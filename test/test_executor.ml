(* The shared domain pool. Determinism is the load-bearing property:
   every embarrassingly-parallel caller (fault campaigns, probe arms)
   promises byte-identical results for any --jobs, and
   that only holds if [map] really is [Array.init] whichever domain
   claims which index from a batch's shared claim counter. *)
module Executor = Sf_support.Executor
module Engine = Sf_sim.Engine
module Faults = Sf_sim.Faults
module Diag = Sf_support.Diag

(* Poll [cond] until it holds or [seconds] of monotonic time pass. *)
let wait_until ?(seconds = 5.0) cond =
  let deadline = Sf_support.Util.monotime () +. seconds in
  while (not (cond ())) && Sf_support.Util.monotime () < deadline do
    Unix.sleepf 0.005
  done

let test_inline_when_serial () =
  Executor.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "no worker domains" 0 (Executor.alive pool);
      let r = Executor.map pool 10 (fun i -> i * i) in
      Alcotest.(check (array int)) "serial map" (Array.init 10 (fun i -> i * i)) r);
  Executor.with_pool ~jobs:(-3) (fun pool ->
      Alcotest.(check int) "negative jobs clamped" 0 (Executor.alive pool);
      Alcotest.(check (array int)) "inline map" [| 0; 2 |] (Executor.map pool 2 (fun i -> 2 * i)))

let test_map_matches_serial () =
  (* Unbalanced tasks (quadratic spin on high indices) finish out of
     order; the result must still be index-ordered. *)
  let n = 64 in
  let f i =
    let acc = ref 0 in
    for j = 0 to i * i do
      acc := (!acc * 31) + j
    done;
    (i, !acc)
  in
  let serial = Array.init n f in
  Executor.with_pool ~jobs:4 (fun pool ->
      for _ = 1 to 5 do
        Alcotest.(check bool) "jobs=4 equals serial" true (Executor.map pool n f = serial)
      done)

let test_map_list_preserves_order () =
  Executor.with_pool ~jobs:3 (fun pool ->
      let xs = [ "a"; "bb"; "ccc"; "dddd"; "e" ] in
      Alcotest.(check (list int)) "order kept" [ 1; 2; 3; 4; 1 ]
        (Executor.map_list pool String.length xs);
      Alcotest.(check (list int)) "empty list" [] (Executor.map_list pool String.length []))

let test_every_task_runs_once () =
  Executor.with_pool ~jobs:4 (fun pool ->
      let n = 500 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      ignore (Executor.map pool n (fun i -> Atomic.incr hits.(i)));
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 1 then
            Alcotest.failf "task %d ran %d times" i (Atomic.get c))
        hits)

let test_shutdown_idempotent () =
  let pool = Executor.create ~workers:2 () in
  Alcotest.(check (array int)) "works" [| 0; 1; 2 |] (Executor.map pool 3 (fun i -> i));
  Executor.shutdown pool;
  Executor.shutdown pool

(* The real consumer: a pinned fault-campaign fixture fanned over the
   pool must produce a report structurally identical to the serial
   one — same seeds, same outcomes, same injected-event logs. *)
let test_campaign_identical_across_jobs () =
  let p = Fixtures.diamond () in
  let config =
    Engine.Config.make ~latency:Sf_analysis.Latency.cheap
      ~safety:(Engine.Config.safety ~deadlock_window:256 ())
      ()
  in
  let inputs = Sf_reference.Interp.random_inputs ~seed:7 p in
  let run jobs =
    match Faults.campaign ~config ~inputs ~schedules:8 ~jobs p with
    | Ok r -> r
    | Error d -> Alcotest.failf "baseline failed: %s" (Diag.to_string d)
  in
  let serial = run 1 in
  List.iter
    (fun jobs ->
      let r = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "report at jobs=%d identical to serial" jobs)
        true (r = serial))
    [ 2; 4 ]

(* Crash isolation: a submitted task whose exception escapes kills its
   worker, but the pool respawns a replacement — later submissions and
   batches still run, and the crash is counted. *)
let test_submit_crash_respawns_worker () =
  let pool = Executor.create ~workers:2 () in
  Alcotest.(check int) "both workers alive" 2 (Executor.alive pool);
  let crashed = Atomic.make 0 in
  for _ = 1 to 3 do
    Executor.submit pool (fun () ->
        Atomic.incr crashed;
        failwith "task bomb")
  done;
  (* Wait for the crashes to land and the replacements to spawn. *)
  wait_until (fun () -> Executor.crashes pool >= 3);
  Alcotest.(check int) "every bomb ran" 3 (Atomic.get crashed);
  Alcotest.(check int) "three crashes recorded" 3 (Executor.crashes pool);
  Alcotest.(check int) "pool respawned to full strength" 2 (Executor.alive pool);
  (* The respawned workers still execute work. *)
  let ran = Atomic.make 0 in
  for _ = 1 to 4 do
    Executor.submit pool (fun () -> Atomic.incr ran)
  done;
  wait_until (fun () -> Atomic.get ran >= 4);
  Alcotest.(check int) "pool still serves after crashes" 4 (Atomic.get ran);
  Executor.shutdown pool

(* The caller drains its own batch, so a batch needs no free worker: it
   completes while every worker is blocked on a submitted task, and when
   it is started from inside a task of the same pool. *)
let test_batch_needs_no_free_worker () =
  Executor.with_pool ~jobs:3 (fun pool ->
      let release = Atomic.make false and blocked = Atomic.make 0 in
      for _ = 1 to 2 do
        Executor.submit pool (fun () ->
            Atomic.incr blocked;
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done)
      done;
      (* Release the workers even when a check fails, or shutdown hangs. *)
      Fun.protect
        ~finally:(fun () -> Atomic.set release true)
        (fun () ->
          wait_until (fun () -> Atomic.get blocked = 2);
          Alcotest.(check int) "every worker blocked" 2 (Atomic.get blocked);
          Alcotest.(check (array int)) "batch beside blocked workers"
            (Array.init 10 (fun i -> i * i))
            (Executor.map pool 10 (fun i -> i * i)));
      let nested =
        Executor.map pool 4 (fun i ->
            Array.fold_left ( + ) 0 (Executor.map pool 5 (fun j -> i * j)))
      in
      Alcotest.(check (array int)) "batch inside a task" [| 0; 10; 20; 30 |] nested)

exception Boom of int

let test_exception_propagates_and_pool_survives () =
  Executor.with_pool ~jobs:4 (fun pool ->
      (match Executor.map pool 100 (fun i -> if i = 37 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "worker exception must re-raise in the submitter"
      | exception Boom 37 -> ()
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
      (* The pool must stay usable after a failed batch. *)
      let r = Executor.map pool 20 (fun i -> i + 1) in
      Alcotest.(check (array int)) "pool survives" (Array.init 20 (fun i -> i + 1)) r)

(* With [fail = Some k], task [k] raises: [map] must re-raise exactly
   that exception, and the pool must then run a clean batch. *)
let prop_map_deterministic =
  let gen =
    QCheck.Gen.(
      pair (int_range 0 40) (int_range 2 6) >>= fun (n, jobs) ->
      (if n = 0 then return None else opt (int_range 0 (n - 1))) >|= fun fail ->
      (n, jobs, fail))
  in
  QCheck.Test.make ~count:30 ~name:"map: any jobs equals jobs=1"
    (QCheck.make ~print:QCheck.Print.(triple int int (option int)) gen)
    (fun (n, jobs, fail) ->
      let f i = (i * 2654435761) land 0xFFFF in
      let serial = Array.init n f in
      Executor.with_pool ~jobs (fun pool ->
          (match fail with
          | None -> ()
          | Some k -> (
              match Executor.map pool n (fun i -> if i = k then raise (Boom i) else f i) with
              | _ -> QCheck.Test.fail_reportf "task %d raised, but map returned" k
              | exception Boom i when i = k -> ()));
          Executor.map pool n f = serial))

let suite =
  [
    Alcotest.test_case "jobs <= 1 runs inline" `Quick test_inline_when_serial;
    Alcotest.test_case "map: unbalanced work, identical results" `Quick
      test_map_matches_serial;
    Alcotest.test_case "map_list preserves order" `Quick test_map_list_preserves_order;
    Alcotest.test_case "map: every task exactly once" `Quick test_every_task_runs_once;
    Alcotest.test_case "exception propagation; pool survives" `Quick
      test_exception_propagates_and_pool_survives;
    Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "submit crash respawns worker" `Quick
      test_submit_crash_respawns_worker;
    Alcotest.test_case "batch needs no free worker" `Quick test_batch_needs_no_free_worker;
    Alcotest.test_case "fault campaign identical across jobs" `Quick
      test_campaign_identical_across_jobs;
    QCheck_alcotest.to_alcotest prop_map_deterministic;
  ]
