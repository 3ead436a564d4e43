open Sf_ir
module Engine = Sf_sim.Engine
module Fusion = Sf_sdfg.Fusion
module Request = Sf_toolchain.Request
module Ctx = Sf_toolchain.Ctx

(* The request frontend over an already-built program, as `stencilflow
   fuse`/`optimize` run it. *)
let frontend ?width ?(fuse = false) ?(optimize = false) p =
  let options = { Request.default_options with width; fuse; optimize } in
  Fixtures.ok (Request.frontend (Request.make `Analyze (Request.Program p) ~options))

let test_fuse_optimize_hdiff () =
  let p = Sf_kernels.Hdiff.program ~shape:[ 6; 16; 16 ] () in
  let ctx = frontend ~fuse:true ~optimize:true p in
  let optimized = Program.Checked.program (Option.get ctx.Ctx.program) in
  let report = Option.get ctx.Ctx.fusion in
  Alcotest.(check int) "fusion collapses 18" 18 report.Fusion.stencils_before;
  Alcotest.(check int) "to 4" 4 report.Fusion.stencils_after;
  Alcotest.(check int) "fold-cse keeps the 4" 4 (List.length optimized.Program.stencils);
  (* Sharing is already counted once in work flops, and hdiff's only
     foldable zeros are +0.0 addends, which IEEE-exact folding keeps. *)
  let opt = Option.get ctx.Ctx.opt in
  Alcotest.(check int) "fold-cse keeps work flops" opt.Sf_sdfg.Opt.ops_before
    opt.Sf_sdfg.Opt.ops_after;
  Alcotest.(check (option bool)) "interior agrees" (Some true)
    (Fusion.interior_agrees ~original:p optimized);
  (* The optimized program still streams correctly. *)
  match
    Engine.run_and_validate
      ~config:(Engine.Config.make ~latency:Sf_analysis.Latency.cheap ())
      optimized
  with
  | Ok _ -> ()
  | Error m -> Alcotest.fail (Sf_support.Diag.to_string m)

let test_vectorize_pass () =
  let p = Fixtures.chain ~shape:[ 8; 32 ] ~n:2 () in
  let p' = Program.Checked.program (Option.get (frontend ~width:4 p).Ctx.program) in
  Alcotest.(check int) "width set" 4 p'.Program.vector_width;
  Alcotest.(check (option bool)) "verified" (Some true) (Fusion.interior_agrees ~original:p p')

let test_reshape_skips_verification () =
  (* A pass that changes the iteration space has no original interior to
     compare against. *)
  let p = Fixtures.laplace2d ~shape:[ 6; 8 ] () in
  let p' = Fixtures.laplace2d ~shape:[ 6; 16 ] () in
  Alcotest.(check (list int)) "reshaped" [ 6; 16 ] p'.Program.shape;
  Alcotest.(check (option bool)) "verification skipped" None
    (Fusion.interior_agrees ~original:p p')

let test_broken_pass_detected () =
  (* A "transformation" that silently changes arithmetic is caught by the
     probe comparison, and `optimize` reports it as SF0801 (exit 8). *)
  let p = Fixtures.laplace2d ~shape:[ 8; 8 ] () in
  let broken =
    {
      p with
      Program.stencils =
        List.map
          (fun (s : Stencil.t) ->
            {
              s with
              Stencil.body =
                {
                  s.Stencil.body with
                  Expr.result =
                    Expr.Binary (Expr.Add, s.Stencil.body.Expr.result, Expr.Const 0.125);
                };
            })
          p.Program.stencils;
    }
  in
  Alcotest.(check (option bool)) "mismatch" (Some false)
    (Fusion.interior_agrees ~original:p broken);
  match Stencilflow.verify_interior ~original:p ~applied:[ "off-by-epsilon" ] broken with
  | Error d ->
      Alcotest.(check string) "verification code" Sf_support.Diag.Code.pass_verification
        d.Sf_support.Diag.code;
      Alcotest.(check int) "exit code" 8 (Sf_support.Diag.exit_code [ d ]);
      Alcotest.(check string) "names program and passes"
        "off-by-epsilon changed interior results of laplace2d" d.Sf_support.Diag.message
  | Ok _ -> Alcotest.fail "broken pass must be detected"

let test_large_domains_skip_probes () =
  let at_limit = Fixtures.laplace2d ~shape:[ 256; 256 ] () in
  Alcotest.(check int) "limit" Fusion.max_probe_cells (Program.cells at_limit);
  Alcotest.(check (option bool)) "at the limit" (Some true)
    (Fusion.interior_agrees ~original:at_limit at_limit);
  let above = Fixtures.laplace2d ~shape:[ 257; 256 ] () in
  Alcotest.(check (option bool)) "skipped" None (Fusion.interior_agrees ~original:above above)

let suite =
  [
    Alcotest.test_case "default pipeline on hdiff" `Quick test_fuse_optimize_hdiff;
    Alcotest.test_case "vectorize pass" `Quick test_vectorize_pass;
    Alcotest.test_case "shape-changing passes skip verification" `Quick
      test_reshape_skips_verification;
    Alcotest.test_case "broken passes are detected" `Quick test_broken_pass_detected;
    Alcotest.test_case "large domains skip probes" `Quick test_large_domains_skip_probes;
  ]
