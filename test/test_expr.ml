open Sf_ir
module E = Builder.E

let expr_testable = Alcotest.testable (fun fmt e -> Expr.pp fmt e) Expr.equal

let test_accesses_dedup () =
  let e = E.(acc "a" [ 0; 1 ] +% (acc "a" [ 0; 1 ] *% acc "b" [ -1; 0 ])) in
  Alcotest.(check int) "two distinct accesses" 2 (List.length (Expr.accesses e));
  Alcotest.(check bool) "a first" true (fst (List.hd (Expr.accesses e)) = "a")

let test_inline_lets () =
  let body =
    {
      Expr.lets = [ ("t", E.(acc "a" [ 0 ] +% c 1.)); ("u", E.(var "t" *% var "t")) ];
      result = E.(var "u" -% var "t");
    }
  in
  let inlined = Dag.to_expr (Dag.of_body body) in
  Alcotest.(check (list string)) "no residual vars" [] (Expr.free_vars inlined);
  let expected = E.((acc "a" [ 0 ] +% c 1.) *% (acc "a" [ 0 ] +% c 1.) -% (acc "a" [ 0 ] +% c 1.)) in
  Alcotest.check expr_testable "substituted" expected inlined

let test_op_profile () =
  (* (a - b) * c / sqrt(d) + (e < 0 ? min(a, b) : max(a, b)) *)
  let a = E.acc "a" [ 0 ] and b = E.acc "b" [ 0 ] in
  let e =
    E.(
      (a -% b) *% acc "c" [ 0 ] /% sqrt_ (acc "d" [ 0 ])
      +% sel (acc "e" [ 0 ] <% c 0.) (min_ a b) (max_ a b))
  in
  let p = Expr.op_profile e in
  Alcotest.(check int) "adds" 2 p.Expr.adds;
  Alcotest.(check int) "muls" 1 p.Expr.muls;
  Alcotest.(check int) "divs" 1 p.Expr.divs;
  Alcotest.(check int) "sqrts" 1 p.Expr.sqrts;
  Alcotest.(check int) "mins" 1 p.Expr.mins;
  Alcotest.(check int) "maxs" 1 p.Expr.maxs;
  Alcotest.(check int) "compares" 1 p.Expr.compares;
  Alcotest.(check int) "data branches" 1 p.Expr.data_branches;
  Alcotest.(check int) "const branches" 0 p.Expr.const_branches;
  Alcotest.(check int) "flops counts sqrt as one op" 5 (Expr.flop_count p)

let test_const_branch () =
  let e = E.(sel (c 1. <% c 2.) (c 0.) (acc "a" [ 0 ])) in
  let p = Expr.op_profile e in
  Alcotest.(check int) "const branch" 1 p.Expr.const_branches;
  Alcotest.(check int) "no data branch" 0 p.Expr.data_branches

let test_precedence_printing () =
  let cases =
    [
      (E.((acc "a" [ 0 ] +% acc "b" [ 0 ]) *% acc "c" [ 0 ]), "(a[0] + b[0]) * c[0]");
      (E.(acc "a" [ 0 ] +% (acc "b" [ 0 ] *% acc "c" [ 0 ])), "a[0] + b[0] * c[0]");
      (E.(acc "a" [ 0 ] -% (acc "b" [ 0 ] -% acc "c" [ 0 ])), "a[0] - (b[0] - c[0])");
      (E.(neg (acc "a" [ 0 ] +% c 1.)), "-(a[0] + 1.0)");
      (E.(sel (acc "a" [ 0 ] >% c 0.) (c 1.) (c 2.)), "a[0] > 0.0 ? 1.0 : 2.0");
    ]
  in
  List.iter
    (fun (e, expected) -> Alcotest.(check string) expected expected (Expr.to_string e))
    cases

(* Random well-formed expressions for roundtrip properties. Constants are
   non-negative (a leading minus reparses as unary negation) and accesses
   always carry at least one offset (bare identifiers reparse as Var). *)
let expr_gen =
  let open QCheck.Gen in
  let field = oneofl [ "a"; "b"; "cc"; "dd" ] in
  let variable = oneofl [ "t0"; "t1"; "u" ] in
  let leaf =
    oneof
      [
        map (fun f -> Expr.Const (Float.abs f)) (float_range 0. 100.);
        map (fun v -> Expr.Var v) variable;
        map2
          (fun f offs -> Expr.Access { field = f; offsets = offs })
          field
          (list_size (int_range 1 3) (int_range (-4) 4));
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun op l r -> Expr.Binary (op, l, r))
              (oneofl
                 [
                   Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge;
                   Expr.Eq; Expr.Ne; Expr.And; Expr.Or;
                 ])
              (node (depth - 1)) (node (depth - 1)) );
          (1, map (fun x -> Expr.Unary (Expr.Neg, x)) (node (depth - 1)));
          (1, map (fun x -> Expr.Unary (Expr.Not, x)) (node (depth - 1)));
          ( 1,
            map3
              (fun cond if_true if_false -> Expr.Select { cond; if_true; if_false })
              (node (depth - 1)) (node (depth - 1)) (node (depth - 1)) );
          ( 1,
            let* f =
              oneofl [ Expr.Sqrt; Expr.Abs; Expr.Exp; Expr.Pow; Expr.Min; Expr.Max; Expr.Floor ]
            in
            let* args = list_repeat (Expr.func_arity f) (node (depth - 1)) in
            return (Expr.Call (f, args)) );
        ]
  in
  node 4

let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:500 ~name:"expression print/parse roundtrip"
    (QCheck.make ~print:Expr.to_string expr_gen) (fun e ->
      Expr.equal e (Fixtures.ok1 (Sf_frontend.Parser.parse_expr (Expr.to_string e))))

let prop_size_positive =
  QCheck.Test.make ~count:200 ~name:"size and accesses are consistent"
    (QCheck.make ~print:Expr.to_string expr_gen) (fun e ->
      let size = Dag.tree_size (Dag.of_expr e) in
      size >= 1 && List.length (Expr.accesses e) <= size)

let suite =
  [
    Alcotest.test_case "accesses deduplicate" `Quick test_accesses_dedup;
    Alcotest.test_case "inline lets substitutes in order" `Quick test_inline_lets;
    Alcotest.test_case "operation profile" `Quick test_op_profile;
    Alcotest.test_case "constant branch classification" `Quick test_const_branch;
    Alcotest.test_case "precedence-aware printing" `Quick test_precedence_printing;
    QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
    QCheck_alcotest.to_alcotest prop_size_positive;
  ]
