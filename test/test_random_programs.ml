(* Cross-cutting properties on fully random programs (Program_gen):
   every layer of the stack must agree with the sequential reference on
   arbitrary DAGs, not just the curated fixtures. *)
open Sf_ir
module Engine = Sf_sim.Engine
module Interp = Sf_reference.Interp
module Tensor = Sf_reference.Tensor
module Fusion = Sf_sdfg.Fusion
module Opt = Sf_sdfg.Opt
module Tiling = Sf_mapping.Tiling
module Program_json = Sf_frontend.Program_json

let cheap = Engine.Config.make ~latency:Sf_analysis.Latency.cheap ()

let semantically_equal ?(inputs = None) p q =
  let inputs = match inputs with Some i -> i | None -> Interp.random_inputs p in
  let rp = Interp.run p ~inputs and rq = Interp.run q ~inputs in
  List.for_all
    (fun (name, (r : Interp.result)) ->
      match List.assoc_opt name rq with
      | None -> false
      | Some r' ->
          r.Interp.valid = r'.Interp.valid
          &&
          let ok = ref true in
          Array.iteri
            (fun i v ->
              if r.Interp.valid.(i) then begin
                let v' = Tensor.get_flat r'.Interp.tensor i in
                if not ((Float.is_nan v && Float.is_nan v') || Float.abs (v -. v') <= 1e-9)
                then ok := false
              end)
            r.Interp.tensor.Tensor.data;
          !ok)
    rp

let prop_generator_produces_valid =
  QCheck.Test.make ~count:200 ~name:"generator produces valid programs"
    Program_gen.arbitrary_program (fun p ->
      Result.is_ok (Program.check p))

let prop_sim_equals_reference =
  QCheck.Test.make ~count:60 ~name:"random programs: simulator equals reference"
    Program_gen.arbitrary_program (fun p ->
      match Engine.run_and_validate ~config:cheap p with Ok _ -> true | Error _ -> false)

let prop_cycles_near_model =
  QCheck.Test.make ~count:40 ~name:"random programs: cycles within envelope of Eq. 1"
    Program_gen.arbitrary_program (fun p ->
      match Engine.run_exn ~config:cheap p with
      | Engine.Deadlocked _ -> false
      | Engine.Completed stats ->
          let nodes = List.length p.Program.stencils in
          stats.Engine.cycles >= stats.Engine.predicted_cycles
          && stats.Engine.cycles <= stats.Engine.predicted_cycles + (4 * (nodes + 2)) + 16)

let prop_json_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random programs: JSON roundtrip preserves semantics"
    Program_gen.arbitrary_program (fun p ->
      let q = Fixtures.ok (Program_json.of_string (Program_json.to_string p)) in
      semantically_equal p q)

let prop_optimize_preserves =
  QCheck.Test.make ~count:60 ~name:"random programs: fold+CSE preserves semantics"
    Program_gen.arbitrary_program (fun p -> semantically_equal p (Opt.optimize p))

(* Bit-exact equality, modulo NaN payloads (any NaN matches any NaN) and
   OCaml's [=] on floats identifying -0.0 with 0.0 — the one identity
   (x + 0.0 -> x) whose sign-of-zero corner the optimizer knowingly
   tolerates. *)
let feq a b = (Float.is_nan a && Float.is_nan b) || a = b

let bit_identical_results (baseline : (string * Interp.result) list)
    (results : (string * Interp.result) list) =
  List.for_all
    (fun (name, (r : Interp.result)) ->
      match List.assoc_opt name results with
      | None -> false
      | Some r' ->
          r.Interp.valid = r'.Interp.valid
          &&
          let ok = ref true in
          Array.iteri
            (fun i v ->
              if r.Interp.valid.(i) && not (feq v (Tensor.get_flat r'.Interp.tensor i)) then
                ok := false)
            r.Interp.tensor.Tensor.data;
          !ok)
    baseline

(* Adversarial bodies: NaN and inf constants, signed zeros, division by
   zero, Eq/Ne both as values and as data-dependent branches. The
   optimizer must be *bit*-transparent on these, not just within a
   tolerance. *)
let prop_optimize_bit_identical_interp =
  QCheck.Test.make ~count:80
    ~name:"adversarial programs: fold+CSE is bit-identical through the interpreter"
    Program_gen.arbitrary_adversarial_program (fun p ->
      let inputs = Interp.random_inputs p in
      bit_identical_results (Interp.run p ~inputs) (Interp.run (Opt.optimize p) ~inputs))

(* The same bit-transparency through the compiled simulator path: the
   optimized program's DAG-compiled stencil units must reproduce the
   unoptimized interpreter baseline exactly. *)
let prop_optimize_bit_identical_sim =
  QCheck.Test.make ~count:40
    ~name:"adversarial programs: optimized simulator run matches unoptimized reference"
    Program_gen.arbitrary_adversarial_program (fun p ->
      let inputs = Interp.random_inputs p in
      let baseline = Interp.run p ~inputs in
      match Engine.run ~config:cheap ~inputs (Opt.optimize p) with
      | Error _ -> false
      | Ok stats -> bit_identical_results baseline stats.Engine.results)

(* Fuse + optimize: on interior cells (beyond the fusion equivalence
   radius, where boundary handling cannot differ) the composition is
   bit-identical too. Neither transform checks its own result, so the
   property also checks both. *)
let prop_fuse_optimize_bit_identical_interior =
  QCheck.Test.make ~count:40
    ~name:"adversarial programs: fuse+optimize bit-identical on interior cells"
    Program_gen.arbitrary_adversarial_program (fun p ->
      let fused, report = Fusion.fuse_all p in
      let optimized = Opt.optimize fused in
      Result.is_ok (Program.check fused)
      && Result.is_ok (Program.check optimized)
      &&
      if report.Fusion.fused_pairs = [] then true
      else begin
        let radius = Fusion.equivalence_radius ~original:p ~fused in
        QCheck.assume (List.for_all (fun e -> e > 2 * radius) p.Program.shape);
        let inputs = Interp.random_inputs p in
        let rp = Interp.run p ~inputs and rq = Interp.run optimized ~inputs in
        let shape = p.Program.shape in
        List.for_all
          (fun (name, (r : Interp.result)) ->
            match List.assoc_opt name rq with
            | None -> false
            | Some r' ->
                let ok = ref true in
                let rec scan prefix = function
                  | [] ->
                      let idx = List.rev prefix in
                      if List.for_all2 (fun i e -> i >= radius && i < e - radius) idx shape
                      then begin
                        let a = Tensor.get r.Interp.tensor idx
                        and b = Tensor.get r'.Interp.tensor idx in
                        if not (feq a b) then ok := false
                      end
                  | e :: rest ->
                      for i = 0 to e - 1 do
                        scan (i :: prefix) rest
                      done
                in
                scan [] shape;
                !ok)
          rp
      end)

let prop_fusion_interior =
  QCheck.Test.make ~count:40 ~name:"random programs: fusion preserves interior cells"
    Program_gen.arbitrary_program (fun p ->
      let fused, report = Fusion.fuse_all p in
      if report.Fusion.fused_pairs = [] then true
      else begin
        let radius = Fusion.equivalence_radius ~original:p ~fused in
        let interior_exists =
          List.for_all (fun e -> e > 2 * radius) p.Program.shape
        in
        QCheck.assume interior_exists;
        let inputs = Interp.random_inputs p in
        let rp = Interp.run p ~inputs and rq = Interp.run fused ~inputs in
        let shape = p.Program.shape in
        List.for_all
          (fun (name, (r : Interp.result)) ->
            match List.assoc_opt name rq with
            | None -> false
            | Some r' ->
                let ok = ref true in
                let rec scan prefix = function
                  | [] ->
                      let idx = List.rev prefix in
                      if List.for_all2 (fun i e -> i >= radius && i < e - radius) idx shape
                      then begin
                        let a = Tensor.get r.Interp.tensor idx
                        and b = Tensor.get r'.Interp.tensor idx in
                        if
                          not
                            ((Float.is_nan a && Float.is_nan b)
                            || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a))
                        then ok := false
                      end
                  | e :: rest ->
                      for i = 0 to e - 1 do
                        scan (i :: prefix) rest
                      done
                in
                scan [] shape;
                !ok)
          rp
      end)

let prop_tiling_exact =
  QCheck.Test.make ~count:40 ~name:"random programs: tiled equals untiled"
    Program_gen.arbitrary_program (fun p ->
      (* Shrink masks are per-tile, so restrict to non-shrinking programs
         (shrink + tiling composes at the writer level, not per tile). *)
      QCheck.assume (List.for_all (fun s -> not s.Stencil.shrink) p.Program.stencils);
      let tile_shape = List.map (fun e -> max 2 (e / 2)) p.Program.shape in
      let inputs = Interp.random_inputs p in
      let untiled = Interp.run p ~inputs in
      let plan = Tiling.plan p ~tile_shape in
      let tiled = Tiling.run_tiled plan ~inputs in
      List.for_all
        (fun (name, (r : Interp.result)) ->
          match List.assoc_opt name tiled with
          | None -> false
          | Some t ->
              let ok = ref true in
              Array.iteri
                (fun i v ->
                  let v' = Tensor.get_flat t i in
                  if not ((Float.is_nan v && Float.is_nan v') || Float.abs (v -. v') <= 1e-9)
                  then ok := false)
                r.Interp.tensor.Tensor.data;
              !ok)
        untiled)

let prop_codegen_never_crashes =
  QCheck.Test.make ~count:80 ~name:"random programs: both backends generate without crashing"
    Program_gen.arbitrary_program (fun p ->
      let opencl = Fixtures.ok (Sf_codegen.Opencl.generate p) in
      let vitis = Fixtures.ok (Sf_codegen.Vitis.generate p) in
      let host = Fixtures.ok (Sf_codegen.Opencl.host_source p) in
      let dot = Sf_codegen.Dot.of_program p in
      List.for_all (fun (a : Sf_codegen.Opencl.artifact) -> String.length a.Sf_codegen.Opencl.source > 0) opencl
      && String.length vitis > 0 && String.length host > 0 && String.length dot > 0)

let prop_report_never_crashes =
  QCheck.Test.make ~count:40 ~name:"random programs: markdown report generates"
    Program_gen.arbitrary_program (fun p ->
      String.length (Sf_codegen.Report.markdown p) > 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_generator_produces_valid;
      prop_sim_equals_reference;
      prop_cycles_near_model;
      prop_json_roundtrip;
      prop_optimize_preserves;
      prop_optimize_bit_identical_interp;
      prop_optimize_bit_identical_sim;
      prop_fuse_optimize_bit_identical_interior;
      prop_fusion_interior;
      prop_tiling_exact;
      prop_codegen_never_crashes;
      prop_report_never_crashes;
    ]
