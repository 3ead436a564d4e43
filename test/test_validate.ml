(* Oracle-path parity: [Engine.run_and_validate] evaluates the reference
   interpreter on the resident spare domain while the simulation runs,
   or inline when the caller is a pool worker. Both paths must report
   the same outcome: the same stats and output bits, the same Diag, or
   the same exception. The spare itself is one domain per process that
   survives its oracles' failures and is free again when a call
   returns. *)
open Sf_ir
module Engine = Sf_sim.Engine
module Interp = Sf_reference.Interp
module Tensor = Sf_reference.Tensor
module Executor = Sf_support.Executor
module Diag = Sf_support.Diag
module E = Builder.E

let cheap = Engine.Config.make ~latency:Sf_analysis.Latency.cheap ()

type outcome = Stats of Engine.stats | Failed of Diag.t | Raised of exn

let outcome f =
  match f () with Ok s -> Stats s | Error d -> Failed d | exception e -> Raised e

(* Run [f] inside a dedicated pool worker, where [run_and_validate]
   evaluates its oracle inline. *)
let on_worker f =
  let pool = Executor.create ~workers:1 () in
  let r = ref None in
  Executor.submit pool (fun () ->
      assert (Executor.worker_index () > 0);
      r := Some (f ()));
  Executor.shutdown pool;
  Option.get !r

let in_worker f = on_worker (fun () -> outcome f)

let both f = (outcome f, in_worker f)

let bits (r : Interp.result) = Array.map Int64.bits_of_float r.Interp.tensor.Tensor.data

let same a b =
  match (a, b) with
  | Stats s, Stats t ->
      { s with Engine.results = [] } = { t with Engine.results = [] }
      && List.map fst s.Engine.results = List.map fst t.Engine.results
      && List.for_all2
           (fun (_, r) (_, q) -> bits r = bits q && r.Interp.valid = q.Interp.valid)
           s.Engine.results t.Engine.results
  | Failed d, Failed e -> d = e
  | Raised e, Raised f -> e = f
  | _ -> false

let describe = function
  | Stats s -> Printf.sprintf "Ok (%d cycles)" s.Engine.cycles
  | Failed d -> "Error " ^ Diag.to_string d
  | Raised e -> "raised " ^ Printexc.to_string e

let prop_paths_agree =
  QCheck.Test.make ~count:40 ~name:"random programs: overlapped and inline oracles agree"
    Program_gen.arbitrary_program (fun p ->
      let overlapped, inline = both (fun () -> Engine.run_and_validate ~config:cheap p) in
      (match overlapped with
      | Stats _ -> ()
      | o -> QCheck.Test.fail_reportf "validation failed: %s" (describe o));
      same overlapped inline
      || QCheck.Test.fail_reportf "overlapped %s, inline %s" (describe overlapped)
           (describe inline))

let check_both name ~expect f =
  let overlapped, inline = both f in
  List.iter
    (fun (path, o) ->
      if not (expect o) then Alcotest.failf "%s, %s path: %s" name path (describe o))
    [ ("overlapped", overlapped); ("inline", inline) ];
  if not (same overlapped inline) then
    Alcotest.failf "%s: overlapped %s, inline %s" name (describe overlapped) (describe inline)

(* Fig. 4: the diamond with its skip buffer overridden deadlocks; the
   simulation's Diag wins over the oracle, which still runs. *)
let test_deadlock_diag () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 () in
  let config =
    {
      cheap with
      Engine.Config.override_edge_buffers = [ (("a", "c"), 0) ];
      Engine.Config.channel_slack = 2;
      Engine.Config.safety = Engine.Config.safety ~deadlock_window:256 ();
    }
  in
  check_both "deadlocked diamond"
    ~expect:(function Failed d -> d.Diag.code = Diag.Code.sim_deadlock | _ -> false)
    (fun () -> Engine.run_and_validate ~config p)

let two_point () =
  let b = Builder.create ~name:"two_point" ~shape:[ 4; 8 ] () in
  Builder.input b "a";
  Builder.stencil b "s" E.(acc "a" [ 0; 1 ] +% acc "a" [ 0; -1 ]);
  Builder.output b "s";
  Builder.finish b

(* The simulation raises first, as it did before the oracle overlapped;
   the oracle's own exception for the same fault is dropped. *)
let test_malformed_program () =
  let p = { (two_point ()) with Program.outputs = [ "ghost" ] } in
  check_both "malformed program"
    ~expect:(( = ) (Raised (Invalid_argument "declared output ghost is not a stencil")))
    (fun () -> Engine.run_and_validate p)

let test_missing_input () =
  check_both "missing input"
    ~expect:(( = ) (Raised (Interp.Runtime_error "missing input data for field a")))
    (fun () -> Engine.run_and_validate ~inputs:[] (two_point ()))

(* A mis-shaped input makes the oracle raise in [prepare], but the
   simulation starves and its deadlock Diag is what surfaces. *)
let test_simulation_error_wins () =
  check_both "mis-shaped input"
    ~expect:(function Failed d -> d.Diag.code = Diag.Code.sim_deadlock | _ -> false)
    (fun () -> Engine.run_and_validate ~inputs:[ ("a", Tensor.create [ 4; 4 ]) ] (two_point ()))

(* An input with the right cell count but a transposed extent: the
   simulation reads it as a flat stream and completes, and the oracle's
   [prepare] rejects the extent. Its exception surfaces on both paths. *)
let test_prepare_error_surfaces () =
  check_both "transposed input"
    ~expect:
      (( = ) (Raised (Interp.Runtime_error "input a: expected extent [4,8], got [8,4]")))
    (fun () -> Engine.run_and_validate ~inputs:[ ("a", Tensor.create [ 8; 4 ]) ] (two_point ()))

(* A completed Jacobi run with one output cell poisoned to NaN is an
   SF0702 mismatch: a NaN deviation compares false against any bound,
   so the comparison tells NaNs from numbers first. A NaN input makes
   NaNs on both sides, which agree, as both evaluators are
   bit-identical. *)
let test_nan_against_number () =
  let p = Sf_kernels.Iterative.(chain ~shape:[ 16; 16 ] Jacobi2d ~length:2) in
  let simulate inputs =
    match Engine.run_exn ~config:cheap ~inputs p with
    | Engine.Completed stats -> (stats, Engine.Internal.compare_to_reference ~inputs p stats)
    | Engine.Deadlocked { cycle; _ } -> Alcotest.failf "deadlocked at cycle %d" cycle
  in
  let inputs = Interp.random_inputs p in
  let stats, clean = simulate inputs in
  (match clean with Ok _ -> () | Error d -> Alcotest.failf "clean run: %s" (Diag.to_string d));
  let _, out = List.hd stats.Engine.results in
  out.Interp.tensor.Tensor.data.(37) <- Float.nan;
  (match Engine.Internal.compare_to_reference ~inputs p stats with
  | Error d -> Alcotest.(check string) "poisoned cell" Diag.Code.sim_mismatch d.Diag.code
  | Ok _ -> Alcotest.fail "a simulated NaN against a number passed");
  let _, a = List.hd inputs in
  a.Tensor.data.(37) <- Float.nan;
  let stats, both = simulate inputs in
  let _, out = List.hd stats.Engine.results in
  Alcotest.(check bool) "the NaN reaches the output" true
    (Array.exists Float.is_nan out.Interp.tensor.Tensor.data);
  match both with Ok _ -> () | Error d -> Alcotest.failf "NaN on both sides: %s" (Diag.to_string d)

(* On a one-core host nothing overlaps and the spare never starts. *)
let multicore = Domain.recommended_domain_count () >= 2
let expected_spawns = if multicore then 1 else 0

(* The domain that runs a task the spare takes, if it takes it. *)
let spare_domain () =
  Option.map (fun join -> join ()) (Executor.overlap (fun () -> (Domain.self () :> int)))

let check_spare_free what =
  let d = spare_domain () in
  if multicore then begin
    match d with
    | Some d when d <> (Domain.self () :> int) -> ()
    | Some _ -> Alcotest.failf "%s: the spare ran on the caller's domain" what
    | None -> Alcotest.failf "%s: the spare is not free" what
  end
  else Alcotest.(check (option int)) (what ^ ": one core, no spare") None d;
  Alcotest.(check int) (what ^ ": spare domains started") expected_spawns
    (Executor.spare_spawns ())

let jacobi () = Sf_kernels.Iterative.(chain ~shape:[ 16; 16 ] Jacobi2d ~length:2)

let test_one_spare () =
  let p = jacobi () in
  for _ = 1 to 50 do
    match Engine.run_and_validate ~config:cheap p with
    | Ok _ -> ()
    | Error d -> Alcotest.failf "validated run: %s" (Diag.to_string d)
  done;
  Alcotest.(check int)
    (if multicore then "50 runs from the main domain start one spare"
     else "one core: 50 runs start no spare")
    expected_spawns (Executor.spare_spawns ());
  let spawns = Executor.spare_spawns () in
  (match in_worker (fun () -> Engine.run_and_validate ~config:cheap p) with
  | Stats _ -> ()
  | o -> Alcotest.failf "run in a pool worker: %s" (describe o));
  Alcotest.(check int) "a pool worker starts none" spawns (Executor.spare_spawns ());
  Alcotest.(check bool) "a pool worker never overlaps" true
    (on_worker (fun () -> Option.is_none (Executor.overlap ignore)))

(* The mis-shaped input makes the overlapped oracle raise on the spare;
   the spare survives it, and the next clean run overlaps on the same
   domain. *)
let test_spare_survives_oracle_exception () =
  check_spare_free "before";
  let before = spare_domain () in
  (match Engine.run_and_validate ~inputs:[ ("a", Tensor.create [ 4; 4 ]) ] (two_point ()) with
  | Error d -> Alcotest.(check string) "SF0701" Diag.Code.sim_deadlock d.Diag.code
  | Ok _ -> Alcotest.fail "the mis-shaped input validated");
  (match Engine.run_and_validate ~config:cheap (jacobi ()) with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "clean run after: %s" (Diag.to_string d));
  Alcotest.(check (option int)) "the same spare" before (spare_domain ());
  check_spare_free "after"

(* A deadlocking run returns its Diag only after its oracle finished,
   so the next caller finds the spare free. *)
let test_deadlock_frees_spare () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 () in
  let config =
    {
      cheap with
      Engine.Config.override_edge_buffers = [ (("a", "c"), 0) ];
      Engine.Config.channel_slack = 2;
      Engine.Config.safety = Engine.Config.safety ~deadlock_window:256 ();
    }
  in
  (match Engine.run_and_validate ~config p with
  | Error d -> Alcotest.(check string) "SF0701" Diag.Code.sim_deadlock d.Diag.code
  | Ok _ -> Alcotest.fail "the diamond completed");
  check_spare_free "after the deadlock"

(* Two non-worker domains validate at once: one may overlap on the
   spare while the other runs inline, and both match the inline path
   bit for bit. *)
let test_concurrent_callers () =
  let p = jacobi () in
  let inputs = Interp.random_inputs p in
  let run () = Engine.run_and_validate ~config:cheap ~inputs p in
  let expected = in_worker run in
  let runs () = List.init 10 (fun _ -> outcome run) in
  let other = Domain.spawn runs in
  let mine = runs () in
  List.iter
    (fun o ->
      if not (same o expected) then
        Alcotest.failf "concurrent %s, inline %s" (describe o) (describe expected))
    (mine @ Domain.join other);
  check_spare_free "after concurrent callers"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_paths_agree;
    Alcotest.test_case "deadlock Diag on both paths" `Quick test_deadlock_diag;
    Alcotest.test_case "malformed program raises on both paths" `Quick test_malformed_program;
    Alcotest.test_case "missing input raises on both paths" `Quick test_missing_input;
    Alcotest.test_case "simulation Error wins over the oracle" `Quick test_simulation_error_wins;
    Alcotest.test_case "prepare error raises on both paths" `Quick test_prepare_error_surfaces;
    Alcotest.test_case "NaN against a number is a mismatch" `Quick test_nan_against_number;
    Alcotest.test_case "validated runs share one spare domain" `Quick test_one_spare;
    Alcotest.test_case "an oracle exception leaves the spare alive" `Quick
      test_spare_survives_oracle_exception;
    Alcotest.test_case "a deadlocked run frees the spare" `Quick test_deadlock_frees_spare;
    Alcotest.test_case "concurrent callers match the inline path" `Quick test_concurrent_callers;
  ]
