open Sf_ir
module Pipeline = Sf_sdfg.Pipeline
module Engine = Sf_sim.Engine

let run ?verify ?max_probe_cells passes p =
  Fixtures.ok (Pipeline.run ?verify ?max_probe_cells passes p)

let test_default_pipeline_on_hdiff () =
  let p = Sf_kernels.Hdiff.program ~shape:[ 6; 16; 16 ] () in
  let optimized, entries = run Pipeline.default_pipeline p in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  let fusion_entry = List.hd entries in
  Alcotest.(check int) "fusion collapses 18" 18 fusion_entry.Pipeline.stencils_before;
  Alcotest.(check int) "to 4" 4 fusion_entry.Pipeline.stencils_after;
  Alcotest.(check (option bool)) "fusion verified" (Some true) fusion_entry.Pipeline.verified;
  let cse_entry = List.nth entries 1 in
  (* Sharing is already counted once in work flops, and hdiff's only
     foldable zeros are +0.0 addends, which IEEE-exact folding keeps. *)
  Alcotest.(check int) "fold-cse keeps work flops" cse_entry.Pipeline.flops_before
    cse_entry.Pipeline.flops_after;
  Alcotest.(check (option bool)) "cse verified" (Some true) cse_entry.Pipeline.verified;
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
  let p', entries = run [ Pipeline.vectorize 4 ] p in
  Alcotest.(check int) "width set" 4 p'.Program.vector_width;
  Alcotest.(check (option bool)) "verified" (Some true) (List.hd entries).Pipeline.verified

let test_nest_pass_skips_verification () =
  let p = Fixtures.laplace2d ~shape:[ 6; 8 ] () in
  let p', entries = run [ Pipeline.nest ~extent:3 ] p in
  Alcotest.(check int) "lifted" 3 (Program.rank p');
  Alcotest.(check (option bool)) "verification skipped" None (List.hd entries).Pipeline.verified

let test_broken_pass_detected () =
  (* A "transformation" that silently changes arithmetic is caught by the
     probe comparison. *)
  let broken =
    Pipeline.custom ~name:"off-by-epsilon" (fun p ->
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
        })
  in
  let p = Fixtures.laplace2d ~shape:[ 8; 8 ] () in
  match Pipeline.run [ broken ] p with
  | Error (d :: _) ->
      Alcotest.(check string) "verification code" Sf_support.Diag.Code.pass_verification
        d.Sf_support.Diag.code
  | Error [] -> Alcotest.fail "failure without diagnostics"
  | Ok _ -> Alcotest.fail "broken pass must be detected"

let test_verification_disabled () =
  (* With verify:false even a broken pass goes through, but is recorded
     as unverified. *)
  let broken = Pipeline.custom ~name:"noop" Fun.id in
  let p = Fixtures.laplace2d ~shape:[ 8; 8 ] () in
  let _, entries = run ~verify:false [ broken ] p in
  Alcotest.(check (option bool)) "unverified" None (List.hd entries).Pipeline.verified

let test_large_domains_skip_probes () =
  let p = Sf_kernels.Hdiff.program () in
  let _, entries = run ~max_probe_cells:1000 Pipeline.default_pipeline p in
  List.iter
    (fun e -> Alcotest.(check (option bool)) "skipped" None e.Pipeline.verified)
    entries

let suite =
  [
    Alcotest.test_case "default pipeline on hdiff" `Quick test_default_pipeline_on_hdiff;
    Alcotest.test_case "vectorize pass" `Quick test_vectorize_pass;
    Alcotest.test_case "shape-changing passes skip verification" `Quick
      test_nest_pass_skips_verification;
    Alcotest.test_case "broken passes are detected" `Quick test_broken_pass_detected;
    Alcotest.test_case "verification can be disabled" `Quick test_verification_disabled;
    Alcotest.test_case "large domains skip probes" `Quick test_large_domains_skip_probes;
  ]
