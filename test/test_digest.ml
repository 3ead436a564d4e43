(* Canonical content digests — the contract the pass cache rests on.
   Structurally equal values must digest identically (so cache hits are
   sound across reallocation, hash-consing state, and processes), any
   semantic mutation must change the digest (so stale artifacts are
   never replayed), and a warm cache must reproduce a cold run
   bit-for-bit. *)
open Sf_ir
module F = Sf_support.Fingerprint
module Device = Sf_models.Device
module Engine = Sf_sim.Engine
module Ctx = Sf_toolchain.Ctx
module Pass_manager = Sf_toolchain.Pass_manager
module Passes = Sf_toolchain.Passes
module Cache = Sf_toolchain.Cache

let hex p = F.to_hex (Program.fingerprint p)

(* A deep structural copy that reallocates every node, so equal digests
   cannot come from physical identity (the IR behind the digest is
   hash-consed; the digest must not depend on that). *)
let rec copy_expr = function
  | Expr.Const f -> Expr.Const f
  | Expr.Access { field; offsets } -> Expr.Access { field; offsets = List.map Fun.id offsets }
  | Expr.Var v -> Expr.Var (String.init (String.length v) (String.get v))
  | Expr.Unary (op, e) -> Expr.Unary (op, copy_expr e)
  | Expr.Binary (op, a, b) -> Expr.Binary (op, copy_expr a, copy_expr b)
  | Expr.Select { cond; if_true; if_false } ->
      Expr.Select
        { cond = copy_expr cond; if_true = copy_expr if_true; if_false = copy_expr if_false }
  | Expr.Call (f, args) -> Expr.Call (f, List.map copy_expr args)

let copy_body { Expr.lets; result } =
  { Expr.lets = List.map (fun (n, e) -> (n, copy_expr e)) lets; result = copy_expr result }

let copy_program (p : Program.t) =
  {
    p with
    Program.stencils =
      List.map (fun (s : Stencil.t) -> { s with Stencil.body = copy_body s.Stencil.body })
        p.Program.stencils;
  }

let prop_structural_equality_same_digest =
  QCheck.Test.make ~count:100 ~name:"structurally equal programs digest identically"
    Program_gen.arbitrary_program (fun p -> hex p = hex (copy_program p))

(* Nudge the first stencil's result by a constant: semantically different
   program, so the digest must move. *)
let nudge (p : Program.t) =
  match p.Program.stencils with
  | [] -> p
  | s :: rest ->
      let body =
        { s.Stencil.body with Expr.result = Expr.Binary (Expr.Add, s.Stencil.body.Expr.result, Expr.Const 0.125) }
      in
      { p with Program.stencils = { s with Stencil.body } :: rest }

let prop_semantic_mutation_changes_digest =
  QCheck.Test.make ~count:100 ~name:"mutating a stencil body changes the digest"
    Program_gen.arbitrary_program (fun p ->
      p.Program.stencils = [] || hex p <> hex (nudge p))

let prop_vector_width_in_digest =
  QCheck.Test.make ~count:50 ~name:"vector width is part of the digest"
    Program_gen.arbitrary_program (fun p ->
      hex p <> hex { p with Program.vector_width = p.Program.vector_width + 1 })

let test_constant_bits_matter () =
  (* 0.1 +. 0.2 <> 0.3 in IEEE-754; the digest hashes the bits, not a
     printed rendering, so these two bodies must differ. *)
  let body c = { Expr.lets = []; result = Expr.Const c } in
  Alcotest.(check bool) "adjacent floats distinguished" false
    (F.to_hex (Program.body_fingerprint (body (0.1 +. 0.2)))
    = F.to_hex (Program.body_fingerprint (body 0.3)))

let test_device_digest_sensitivity () =
  let d = Device.stratix10 in
  let fp x = F.to_hex (Device.fingerprint x) in
  Alcotest.(check string) "deterministic" (fp d) (fp d);
  List.iter
    (fun (label, d') ->
      Alcotest.(check bool) label false (fp d = fp d'))
    [
      ("frequency", { d with Device.frequency_hz = d.Device.frequency_hz +. 1e6 });
      ("m20k", { d with Device.m20k = d.Device.m20k + 1 });
      ("link bandwidth", { d with Device.link_bytes_per_s = d.Device.link_bytes_per_s +. 1. });
    ]

let test_sim_config_digest_narrowing () =
  (* The full config digest must see every knob that can change a
     result, but the latency view — what latency-driven analyses key on —
     must ignore simulation-only settings like the safety budget. *)
  let base = Engine.Config.make () in
  let bounded =
    Engine.Config.make ~safety:(Engine.Config.safety ~max_cycles:1234 ()) ()
  in
  Alcotest.(check bool) "full digest sees the cycle budget" false
    (F.to_hex (Engine.Config.fingerprint base) = F.to_hex (Engine.Config.fingerprint bounded));
  Alcotest.(check string) "latency view does not"
    (F.to_hex (Engine.Config.latency_fingerprint base.Engine.Config.latency))
    (F.to_hex (Engine.Config.latency_fingerprint bounded.Engine.Config.latency));
  let cheap = Engine.Config.make ~latency:Sf_analysis.Latency.cheap () in
  Alcotest.(check bool) "latency view sees latency changes" false
    (F.to_hex (Engine.Config.latency_fingerprint base.Engine.Config.latency)
    = F.to_hex (Engine.Config.latency_fingerprint cheap.Engine.Config.latency))

let pipeline p = [ Passes.use_program p; Passes.delay_buffers; Passes.partition; Passes.codegen_opencl ]

let test_warm_run_bit_identical () =
  let p = Fixtures.diamond () in
  let cache = Cache.create () in
  let run () =
    match Pass_manager.run ~cache (pipeline p) (Ctx.create ()) with
    | Error (ds, _) -> Alcotest.fail (Sf_support.Diag.to_string (List.hd ds))
    | Ok (ctx, trace) -> (Ctx.artifact_files ctx, trace)
  in
  let cold_files, cold_trace = run () in
  let warm_files, warm_trace = run () in
  Alcotest.(check int) "cold run executed every pass"
    (List.length cold_trace)
    (Pass_manager.executed_passes cold_trace);
  Alcotest.(check int) "warm run executed nothing" 0
    (Pass_manager.executed_passes warm_trace);
  Alcotest.(check int) "warm run was fully cached"
    (List.length warm_trace)
    (Pass_manager.cached_passes warm_trace);
  Alcotest.(check (list (pair string string))) "artifacts bit-identical" cold_files warm_files

let test_seed_change_reruns_only_simulate () =
  let p = Fixtures.diamond () in
  let cache = Cache.create () in
  let passes seed =
    [
      Passes.use_program p;
      Passes.delay_buffers;
      Passes.partition;
      Passes.performance_model;
      Passes.simulate ~validate:false ~seed ();
    ]
  in
  let run seed =
    match Pass_manager.run ~cache (passes seed) (Ctx.create ()) with
    | Error (ds, _) -> Alcotest.fail (Sf_support.Diag.to_string (List.hd ds))
    | Ok (_, trace) -> trace
  in
  ignore (run 1);
  let trace = run 2 in
  let executed =
    List.filter_map
      (fun (t : Pass_manager.timing) ->
        if t.Pass_manager.cached then None else Some t.Pass_manager.pass)
      trace
  in
  Alcotest.(check (list string)) "only the seeded pass re-ran" [ "simulate" ] executed

let suite =
  [
    QCheck_alcotest.to_alcotest prop_structural_equality_same_digest;
    QCheck_alcotest.to_alcotest prop_semantic_mutation_changes_digest;
    QCheck_alcotest.to_alcotest prop_vector_width_in_digest;
    Alcotest.test_case "constant bits matter" `Quick test_constant_bits_matter;
    Alcotest.test_case "device digest sensitivity" `Quick test_device_digest_sensitivity;
    Alcotest.test_case "sim-config digest narrowing" `Quick test_sim_config_digest_narrowing;
    Alcotest.test_case "warm run is bit-identical to cold" `Quick test_warm_run_bit_identical;
    Alcotest.test_case "seed change re-runs only simulate" `Quick test_seed_change_reruns_only_simulate;
  ]
