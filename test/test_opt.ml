open Sf_ir
module Opt = Sf_sdfg.Opt
module Fusion = Sf_sdfg.Fusion
module Interp = Sf_reference.Interp
module Parser = Sf_frontend.Parser
module E = Builder.E

let expr_testable = Alcotest.testable (fun fmt e -> Expr.pp fmt e) Expr.equal
let parse src = Fixtures.ok1 (Parser.parse_expr src)

let check_fold src expected () =
  Alcotest.check expr_testable src (parse expected) (Opt.fold_constants (parse src))

let fold_cases =
  [
    ("1.0 + 2.0 * 3.0", "7.0");
    (* Zero identities are sign-exact: [-0.0 + +0.0] is [+0.0], so only
       [x + -0.0] and [x - +0.0] fold. *)
    ("a[0] + 0.0", "a[0] + 0.0");
    ("0.0 + a[0]", "0.0 + a[0]");
    ("a[0] - 0.0", "a[0]");
    ("a[0] * 1.0", "a[0]");
    ("1.0 * a[0]", "a[0]");
    ("a[0] / 1.0", "a[0]");
    ("sqrt(16.0)", "4.0");
    ("min(2.0, 3.0) + max(2.0, 3.0)", "5.0");
    ("1.0 < 2.0 ? a[0] : b[0]", "a[0]");
    ("2.0 < 1.0 ? a[0] : b[0] + 0.0", "b[0] + 0.0");
    (* Nested folding. *)
    ("a[0] * (2.0 - 1.0) + (3.0 - 3.0)", "a[0] + 0.0");
    (* x * 0 is NOT folded (NaN/Inf semantics). *)
    ("a[0] * 0.0", "a[0] * 0.0");
    ("a[0] + -0.0", "a[0]");
    ("-0.0 + a[0]", "a[0]");
  ]

let test_fold_preserves_semantics =
  let gen = QCheck.Gen.oneofl (List.map (fun (src, _) -> src) fold_cases) in
  ignore gen;
  fun () ->
    let lookup ~field:_ ~offsets:_ = 1.75 in
    List.iter
      (fun (src, _) ->
        let e = parse src in
        let before = Interp.eval_expr ~lookup ~env:(fun _ -> None) e in
        let after = Interp.eval_expr ~lookup ~env:(fun _ -> None) (Opt.fold_constants e) in
        Alcotest.(check (float 1e-12)) src before after)
      fold_cases

let test_cse_extracts_shared () =
  (* (a+b)*(a+b) -> let t = a+b in t*t *)
  let body =
    { Expr.lets = []; result = E.((acc "a" [ 0 ] +% acc "b" [ 0 ]) *% (acc "a" [ 0 ] +% acc "b" [ 0 ])) }
  in
  let out = Opt.cse body in
  Alcotest.(check int) "one binding" 1 (List.length out.Expr.lets);
  let profile = Expr.body_op_profile out in
  Alcotest.(check int) "one add remains" 1 profile.Expr.adds;
  Alcotest.(check int) "one mul" 1 profile.Expr.muls

let test_cse_nested_sharing () =
  (* sqrt(a+b) used twice, and (a+b) also used separately: the inner
     shared node is bound before the outer one. *)
  let ab = E.(acc "a" [ 0 ] +% acc "b" [ 0 ]) in
  let body =
    { Expr.lets = []; result = E.(sqrt_ ab +% sqrt_ ab +% ab) }
  in
  let out = Opt.cse ~min_size:2 body in
  Alcotest.(check bool) "at least two bindings" true (List.length out.Expr.lets >= 2);
  let profile = Expr.body_op_profile out in
  Alcotest.(check int) "adds reduced to 3" 3 profile.Expr.adds;
  Alcotest.(check int) "one sqrt" 1 profile.Expr.sqrts

(* Let order and __cseN numbering are a function of the expression, not
   of the domain's interning history: extracting the same expression in
   a fresh domain, and in one that interned an unrelated (later-shared)
   subexpression first, yields the same body. *)
let test_cse_independent_of_interning_history () =
  let ab = E.(acc "a" [ 0 ] +% acc "b" [ 0 ]) and cd = E.(acc "c" [ 0 ] *% acc "d" [ 0 ]) in
  let e = E.((ab *% ab) +% (cd *% cd)) in
  let extract_in_fresh_domain ~prime =
    Domain.join
      (Domain.spawn (fun () ->
           List.iter (fun x -> ignore (Dag.of_expr x)) prime;
           Dag.extract (Dag.of_expr e)))
  in
  let fresh = extract_in_fresh_domain ~prime:[] in
  let primed = extract_in_fresh_domain ~prime:[ E.(acc "z" [ 1 ]); ab ] in
  Alcotest.(check (list string)) "let order"
    (List.map fst fresh.Expr.lets) (List.map fst primed.Expr.lets);
  Alcotest.(check bool) "identical body" true (fresh = primed);
  Alcotest.(check bool) "same as on this domain" true (fresh = Dag.extract (Dag.of_expr e))

let test_cse_nested_occurrences_bind_once () =
  (* sqrt(a+b) * sqrt(a+b): the inner (a+b) occurs twice in the tree but
     only through the single shared sqrt parent — it must not get its own
     redundant __cseN binding (the historical string-keyed CSE counted
     per textual occurrence and emitted one). *)
  let ab = E.(acc "a" [ 0 ] +% acc "b" [ 0 ]) in
  let body = { Expr.lets = []; result = E.(sqrt_ ab *% sqrt_ ab) } in
  let out = Opt.cse ~min_size:2 body in
  Alcotest.(check int) "exactly one binding (the sqrt)" 1 (List.length out.Expr.lets);
  (match out.Expr.lets with
  | [ (_, Expr.Call (Expr.Sqrt, _)) ] -> ()
  | _ -> Alcotest.fail "expected the shared sqrt to be the single binding");
  let profile = Expr.body_op_profile out in
  Alcotest.(check int) "one add" 1 profile.Expr.adds;
  Alcotest.(check int) "one sqrt" 1 profile.Expr.sqrts;
  Alcotest.(check int) "one mul" 1 profile.Expr.muls

let test_cse_no_sharing_is_identity_profile () =
  let body = { Expr.lets = []; result = E.(acc "a" [ 0 ] +% acc "b" [ 0 ]) } in
  let out = Opt.cse body in
  Alcotest.(check int) "no bindings" 0 (List.length out.Expr.lets);
  Alcotest.check expr_testable "unchanged" body.Expr.result out.Expr.result

let semantically_equal p q =
  let inputs = Interp.random_inputs p in
  let rp = Interp.run p ~inputs and rq = Interp.run q ~inputs in
  List.for_all
    (fun (name, (r : Interp.result)) ->
      match List.assoc_opt name rq with
      | None -> false
      | Some r' ->
          Sf_reference.Tensor.max_abs_diff r.Interp.tensor r'.Interp.tensor < 1e-12)
    rp

let test_optimize_preserves_program_semantics () =
  List.iter
    (fun p ->
      let optimized = Opt.optimize p in
      Alcotest.(check bool) (p.Program.name ^ " semantics") true (semantically_equal p optimized))
    [
      Fixtures.laplace2d ();
      Fixtures.kitchen_sink ();
      Fixtures.fork ();
      Sf_kernels.Hdiff.program ~shape:[ 3; 6; 6 ] ();
    ]

let test_fusion_plus_cse_recovers_sharing () =
  (* Fusing a chain duplicates the producer per consuming access — but
     only in the *tree* view. Fusion substitutes on the hash-consed DAG
     and re-extracts, so the fused body already carries its sharing as
     let bindings: its work flop count (shared nodes once) is strictly
     below its fully inlined tree flop count, and a subsequent optimize
     pass has nothing left to recover. *)
  let p = Fixtures.chain ~shape:[ 8; 12 ] ~n:3 () in
  let fused, _ = Fusion.fuse_all p in
  let body = (List.hd fused.Program.stencils).Stencil.body in
  let work = Expr.flop_count (Dag.work_profile (Dag.of_body body)) in
  let tree = Expr.flop_count (Dag.tree_profile (Dag.of_body body)) in
  Alcotest.(check bool)
    (Printf.sprintf "fused body keeps sharing (work %d < tree %d)" work tree)
    true (work < tree);
  Alcotest.(check int) "body_op_profile counts shared work once" work
    (Expr.flop_count (Expr.body_op_profile body));
  let optimized = Opt.optimize fused in
  let after =
    Expr.flop_count (Expr.body_op_profile (List.hd optimized.Program.stencils).Stencil.body)
  in
  Alcotest.(check bool)
    (Printf.sprintf "optimize does not add ops (%d -> %d)" work after)
    true (after <= work);
  Alcotest.(check bool) "still correct" true (semantically_equal fused optimized)

let test_nan_const_folding_pins_ieee () =
  (* IEEE comparison semantics pinned across every evaluator: NaN is
     Eq-false and Ne-true in the constant folder, the interpreter, and
     the compiled simulator path alike. Regression guard for the folder
     silently adopting reflexive equality. *)
  let nan_ = Float.nan in
  Alcotest.(check (float 0.)) "fold Eq(nan,nan) = false" 0. (Opt.eval_const_binop Expr.Eq nan_ nan_);
  Alcotest.(check (float 0.)) "fold Ne(nan,nan) = true" 1. (Opt.eval_const_binop Expr.Ne nan_ nan_);
  Alcotest.(check (float 0.)) "fold Eq(nan,1) = false" 0. (Opt.eval_const_binop Expr.Eq nan_ 1.);
  Alcotest.(check (float 0.)) "fold Ne(nan,1) = true" 1. (Opt.eval_const_binop Expr.Ne nan_ 1.);
  (* 0/0 == 0/0 is a NaN comparison: the false branch must be chosen by
     folding, and the unfolded program must agree through the reference
     interpreter and the engine's compiled stencil units. *)
  let cond = E.(c 0. /% c 0. ==% (c 0. /% c 0.)) in
  let picked = Opt.fold_constants E.(sel cond (acc "a" [ 0; 0 ] *% c 100.) (acc "a" [ 0; 0 ] +% c 2.)) in
  Alcotest.(check bool) "fold picks the false branch" true
    (Expr.equal picked E.(acc "a" [ 0; 0 ] +% c 2.));
  let b = Builder.create ~name:"nan_eq" ~shape:[ 4; 8 ] () in
  Builder.input b "a";
  Builder.stencil b "s" E.(sel cond (acc "a" [ 0; 0 ] *% c 100.) (acc "a" [ 0; 0 ] +% c 2.));
  Builder.output b "s";
  let p = Builder.finish b in
  let inputs = Interp.random_inputs p in
  let expect i = Sf_reference.Tensor.get_flat (List.assoc "a" inputs) i +. 2. in
  let check_result what (r : Interp.result) =
    Array.iteri
      (fun i v ->
        if v <> expect i then
          Alcotest.failf "%s: cell %d is %h, want %h" what i v (expect i))
      r.Interp.tensor.Sf_reference.Tensor.data
  in
  check_result "interpreter" (List.assoc "s" (Interp.run p ~inputs));
  (match Sf_sim.Engine.run ~inputs p with
  | Ok stats -> check_result "simulator" (List.assoc "s" stats.Sf_sim.Engine.results)
  | Error d -> Alcotest.fail (Sf_support.Diag.to_string d));
  (* And the folded program agrees with itself through the sim, i.e. the
     optimizer did not change what the engine computes. *)
  match Sf_sim.Engine.run ~inputs (Opt.optimize p) with
  | Ok stats -> check_result "optimized simulator" (List.assoc "s" stats.Sf_sim.Engine.results)
  | Error d -> Alcotest.fail (Sf_support.Diag.to_string d)

let test_optimized_simulates () =
  let p = Opt.optimize (fst (Fusion.fuse_all (Fixtures.kitchen_sink ()))) in
  match Sf_sim.Engine.run_and_validate p with
  | Ok _ -> ()
  | Error m -> Alcotest.fail (Sf_support.Diag.to_string m)

(* Property: folding and CSE preserve evaluation on random expressions
   and random access values. *)
let prop_fold_preserves =
  QCheck.Test.make ~count:300 ~name:"constant folding preserves evaluation"
    (QCheck.make ~print:Expr.to_string Test_expr.expr_gen)
    (fun e ->
      let lookup ~field ~offsets =
        float_of_int (Hashtbl.hash (field, offsets) mod 17) /. 7.
      in
      let env _ = Some 0.5 in
      let a = Interp.eval_expr ~lookup ~env e in
      let b = Interp.eval_expr ~lookup ~env (Opt.fold_constants e) in
      (Float.is_nan a && Float.is_nan b) || a = b)

let prop_cse_preserves =
  QCheck.Test.make ~count:300 ~name:"CSE preserves evaluation and never adds ops"
    (QCheck.make ~print:Expr.to_string Test_expr.expr_gen)
    (fun e ->
      (* Use a closed body: replace free vars with accesses first. *)
      let closed =
        Dag.to_expr (Dag.of_expr ~env:(fun _ -> Some (Dag.access ~field:"a" ~offsets:[ 0 ])) e)
      in
      let body = { Expr.lets = []; result = closed } in
      let out = Opt.cse body in
      let lookup ~field ~offsets =
        float_of_int (Hashtbl.hash (field, offsets) mod 23) /. 11.
      in
      let a = Interp.eval_expr ~lookup ~env:(fun _ -> None) closed in
      let bindings = Hashtbl.create 8 in
      List.iter
        (fun (n, bexpr) ->
          Hashtbl.replace bindings n
            (Interp.eval_expr ~lookup ~env:(Hashtbl.find_opt bindings) bexpr))
        out.Expr.lets;
      let b = Interp.eval_expr ~lookup ~env:(Hashtbl.find_opt bindings) out.Expr.result in
      let same = (Float.is_nan a && Float.is_nan b) || a = b in
      let before = Expr.flop_count (Expr.op_profile closed) in
      let after = Expr.flop_count (Expr.body_op_profile out) in
      same && after <= before)

let suite =
  List.map
    (fun (src, expected) ->
      Alcotest.test_case (Printf.sprintf "fold: %s" src) `Quick (check_fold src expected))
    fold_cases
  @ [
      Alcotest.test_case "folding preserves values" `Quick test_fold_preserves_semantics;
      Alcotest.test_case "CSE extracts shared subtrees" `Quick test_cse_extracts_shared;
      Alcotest.test_case "CSE binds inner shares first" `Quick test_cse_nested_sharing;
      Alcotest.test_case "CSE binds nested occurrences once" `Quick
        test_cse_nested_occurrences_bind_once;
      Alcotest.test_case "CSE is independent of interning history" `Quick
        test_cse_independent_of_interning_history;
      Alcotest.test_case "CSE without sharing changes nothing" `Quick
        test_cse_no_sharing_is_identity_profile;
      Alcotest.test_case "optimize preserves program semantics" `Quick
        test_optimize_preserves_program_semantics;
      Alcotest.test_case "fusion + CSE recovers sharing" `Quick test_fusion_plus_cse_recovers_sharing;
      Alcotest.test_case "NaN Eq/Ne folding pins IEEE across layers" `Quick
        test_nan_const_folding_pins_ieee;
      Alcotest.test_case "optimized programs simulate" `Quick test_optimized_simulates;
      QCheck_alcotest.to_alcotest prop_fold_preserves;
      QCheck_alcotest.to_alcotest prop_cse_preserves;
    ]
