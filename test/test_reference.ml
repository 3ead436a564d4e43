open Sf_ir
module Tensor = Sf_reference.Tensor
module Interp = Sf_reference.Interp
module E = Builder.E

let test_tensor_basics () =
  let t = Tensor.of_fn [ 2; 3 ] (fun idx -> match idx with [ i; j ] -> float_of_int ((10 * i) + j) | _ -> 0.) in
  Alcotest.(check (float 0.)) "get" 12. (Tensor.get t [ 1; 2 ]);
  Alcotest.(check int) "flat" 5 (Tensor.flat_index t [ 1; 2 ]);
  Alcotest.(check bool) "in bounds" true (Tensor.in_bounds t [ 1; 2 ]);
  Alcotest.(check bool) "out of bounds" false (Tensor.in_bounds t [ 2; 0 ]);
  (match Tensor.get t [ 0; 3 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected bounds error");
  let u = Tensor.copy t in
  Tensor.set u [ 0; 0 ] 99.;
  Alcotest.(check (float 0.)) "copy is independent" 0. (Tensor.get t [ 0; 0 ]);
  Alcotest.(check (float 0.)) "max abs diff" 99. (Tensor.max_abs_diff t u)

let test_laplace_center () =
  (* On a linear ramp f(j,i) = i, the 4-point laplacian minus 4*center is
     -2*i at interior cells with constant-zero boundary corrections at the
     edges. Check one interior cell exactly. *)
  let p = Fixtures.laplace2d ~shape:[ 4; 4 ] () in
  let a = Tensor.of_fn [ 4; 4 ] (function [ _; i ] -> float_of_int i | _ -> 0.) in
  let results = Interp.run p ~inputs:[ ("a", a) ] in
  let lap = (List.assoc "lap" results).Interp.tensor in
  (* cell (1,1): left 0 + right 2 + up 1 + down 1 - 4*1 = 0. *)
  Alcotest.(check (float 1e-12)) "interior" 0. (Tensor.get lap [ 1; 1 ]);
  (* cell (0,0): left OOB->0, right 1, up OOB->0, down 0, -4*0 = 1. *)
  Alcotest.(check (float 1e-12)) "corner with constant bc" 1. (Tensor.get lap [ 0; 0 ])

let test_copy_boundary () =
  let b = Builder.create ~name:"copybc" ~shape:[ 1; 4 ] () in
  Builder.input b "a";
  Builder.stencil b ~boundary:[ ("a", Boundary.Copy) ] "s" E.(acc "a" [ 0; -1 ] +% acc "a" [ 0; 1 ]);
  Builder.output b "s";
  let p = Builder.finish b in
  let a = Tensor.of_array [ 1; 4 ] [| 1.; 2.; 3.; 4. |] in
  let s = (List.assoc "s" (Interp.run p ~inputs:[ ("a", a) ])).Interp.tensor in
  (* At i=0 the left neighbour copies the center: 1 + 2 = 3. *)
  Alcotest.(check (float 0.)) "left edge" 3. (Tensor.get s [ 0; 0 ]);
  Alcotest.(check (float 0.)) "right edge" 7. (Tensor.get s [ 0; 3 ]);
  Alcotest.(check (float 0.)) "interior" 4. (Tensor.get s [ 0; 1 ])

let test_shrink_mask () =
  let b = Builder.create ~name:"shrink" ~shape:[ 3; 3 ] () in
  Builder.input b "a";
  Builder.stencil b ~shrink:true
    ~boundary:[ ("a", Boundary.Constant 0.) ]
    "s"
    E.(acc "a" [ 0; -1 ] +% acc "a" [ 0; 1 ] +% acc "a" [ -1; 0 ] +% acc "a" [ 1; 0 ]);
  Builder.output b "s";
  let p = Builder.finish b in
  let a = Tensor.create ~init:1. [ 3; 3 ] in
  let r = List.assoc "s" (Interp.run p ~inputs:[ ("a", a) ]) in
  (* Only the single interior cell (1,1) is valid on a 3x3 domain. *)
  let valid_count = Array.fold_left (fun n v -> if v then n + 1 else n) 0 r.Interp.valid in
  Alcotest.(check int) "one valid cell" 1 valid_count;
  Alcotest.(check bool) "center valid" true r.Interp.valid.(4);
  Alcotest.(check (float 0.)) "center value" 4. (Tensor.get r.Interp.tensor [ 1; 1 ])

let test_lower_dim_and_scalar () =
  let b = Builder.create ~name:"lower" ~shape:[ 2; 3; 4 ] () in
  Builder.input b "u";
  Builder.input b ~axes:[ 1 ] "row";
  Builder.input b ~axes:[] "alpha";
  Builder.stencil b "s" E.(acc "u" [ 0; 0; 0 ] *% acc "row" [ 0 ] +% sc "alpha");
  Builder.output b "s";
  let p = Builder.finish b in
  let u = Tensor.create ~init:2. [ 2; 3; 4 ] in
  let row = Tensor.of_array [ 3 ] [| 10.; 20.; 30. |] in
  let alpha = Tensor.of_array [ 1 ] [| 0.5 |] in
  let s =
    (List.assoc "s" (Interp.run p ~inputs:[ ("u", u); ("row", row); ("alpha", alpha) ]))
      .Interp.tensor
  in
  Alcotest.(check (float 0.)) "j=0" 20.5 (Tensor.get s [ 0; 0; 3 ]);
  Alcotest.(check (float 0.)) "j=2" 60.5 (Tensor.get s [ 1; 2; 0 ])

let test_multi_stage_dependency () =
  (* b = a+1 everywhere; c = b * 2 reads b at an offset. *)
  let bld = Builder.create ~name:"stages" ~shape:[ 1; 4 ] () in
  Builder.input bld "a";
  Builder.stencil bld "b" E.(acc "a" [ 0; 0 ] +% c 1.);
  Builder.stencil bld ~boundary:[ ("b", Boundary.Constant 100.) ] "c" E.(acc "b" [ 0; 1 ] *% c 2.);
  Builder.output bld "c";
  let p = Builder.finish bld in
  let a = Tensor.of_array [ 1; 4 ] [| 0.; 1.; 2.; 3. |] in
  let cres = (List.assoc "c" (Interp.run p ~inputs:[ ("a", a) ])).Interp.tensor in
  Alcotest.(check (float 0.)) "reads downstream neighbour" 4. (Tensor.get cres [ 0; 0 ]);
  Alcotest.(check (float 0.)) "boundary of produced field" 200. (Tensor.get cres [ 0; 3 ])

let test_data_dependent_branch () =
  let bld = Builder.create ~name:"branchy" ~shape:[ 1; 4 ] () in
  Builder.input bld "a";
  Builder.stencil bld "s" E.(sel (acc "a" [ 0; 0 ] >% c 0.) (sqrt_ (acc "a" [ 0; 0 ])) (c 0.)) ;
  Builder.output bld "s";
  let p = Builder.finish bld in
  let a = Tensor.of_array [ 1; 4 ] [| 4.; -1.; 9.; 0. |] in
  let s = (List.assoc "s" (Interp.run p ~inputs:[ ("a", a) ])).Interp.tensor in
  Alcotest.(check (float 0.)) "sqrt branch" 2. (Tensor.get s [ 0; 0 ]);
  Alcotest.(check (float 0.)) "else branch" 0. (Tensor.get s [ 0; 1 ]);
  Alcotest.(check (float 0.)) "sqrt 9" 3. (Tensor.get s [ 0; 2 ])

let test_missing_input () =
  let p = Fixtures.laplace2d () in
  match Interp.run p ~inputs:[] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected runtime error for missing input"

let test_non_shortcircuit_semantics () =
  (* Both sides of && are evaluated but selection is still correct. *)
  let e = Fixtures.ok1 (Sf_frontend.Parser.parse_expr "a[0] > 0.0 && 1.0 / a[0] > 0.5 ? 1.0 : 0.0") in
  let lookup ~field:_ ~offsets:_ = 0. in
  let v = Interp.eval_expr ~lookup ~env:(fun _ -> None) e in
  Alcotest.(check (float 0.)) "division by zero tolerated" 0. v

(* Per-cell oracle for the row-batched interpreter: every cell evaluated
   on its own through eval_expr, with the DSL's boundary and shrink rules
   applied access by access. *)
let per_cell_oracle (p : Program.t) ~inputs =
  let shape = Array.of_list p.Program.shape in
  let rank = Array.length shape in
  let cells = Program.cells p in
  let store = Hashtbl.create 8 in
  List.iter (fun (name, (t : Tensor.t)) -> Hashtbl.replace store name t.Tensor.data) inputs;
  List.map
    (fun (s : Stencil.t) ->
      let out = Array.make cells 0. and valid = Array.make cells true in
      for flat = 0 to cells - 1 do
        let idx = Array.make rank 0 in
        let rem = ref flat in
        for d = rank - 1 downto 0 do
          idx.(d) <- !rem mod shape.(d);
          rem := !rem / shape.(d)
        done;
        let oob = ref false in
        let lookup ~field ~offsets =
          let axes = Program.field_axes p field in
          let data = Hashtbl.find store field in
          let element targets =
            List.fold_left2 (fun acc a t -> (acc * shape.(a)) + t) 0 axes targets
          in
          let targets = List.map2 (fun a o -> idx.(a) + o) axes offsets in
          if List.for_all2 (fun a t -> t >= 0 && t < shape.(a)) axes targets then
            data.(element targets)
          else begin
            oob := true;
            match Stencil.boundary_for s field with
            | Boundary.Constant c -> c
            | Boundary.Copy -> data.(element (List.map (fun a -> idx.(a)) axes))
          end
        in
        let env =
          List.fold_left
            (fun env (name, e) ->
              let v = Interp.eval_expr ~lookup ~env:(fun n -> List.assoc_opt n env) e in
              (name, v) :: env)
            [] s.Stencil.body.Expr.lets
        in
        out.(flat) <-
          Interp.eval_expr ~lookup ~env:(fun n -> List.assoc_opt n env) s.Stencil.body.Expr.result;
        if s.Stencil.shrink && !oob then valid.(flat) <- false
      done;
      Hashtbl.replace store s.Stencil.name out;
      (s.Stencil.name, out, valid))
    (Program.topological_stencils p)

(* [p] with every stage declared an output, so [Interp.run] keeps them
   all, in topological order. *)
let every_stage (p : Program.t) =
  { p with Program.outputs = List.map (fun (s : Stencil.t) -> s.Stencil.name) p.Program.stencils }

let check_rows_match_oracle p =
  let inputs = Interp.random_inputs ~seed:7 p in
  let results = Interp.run (every_stage p) ~inputs in
  List.iter
    (fun (name, values, valid) ->
      let r = List.assoc name results in
      Array.iteri
        (fun i v ->
          Alcotest.(check int64)
            (Printf.sprintf "%s[%d]" name i)
            (Int64.bits_of_float v)
            (Int64.bits_of_float r.Interp.tensor.Tensor.data.(i)))
        values;
      Alcotest.(check (array bool)) (name ^ " validity") valid r.Interp.valid)
    (per_cell_oracle p ~inputs)

let test_rows_rank0 () =
  (* Iteration spaces have 1-3 dimensions, so a rank-0 program is
     rejected; rank 0 is reachable only as scalar fields, whose one
     element is broadcast to every lane of a row. *)
  let scalar = Program.make ~name:"rank0" ~shape:[] ~inputs:[] ~outputs:[ "s" ]
      [ Stencil.make ~name:"s" { Expr.lets = []; result = Expr.Const 1. } ] in
  (match Interp.run scalar ~inputs:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a rank-0 iteration space must be rejected");
  let b = Builder.create ~name:"scalars" ~shape:[ 4 ] () in
  Builder.input b ~axes:[] "a";
  Builder.input b ~axes:[] "k";
  Builder.stencil b "s" E.((sc "a" *% c 2.) -% sc "k");
  Builder.stencil b "t" E.(sel (acc "s" [ 0 ] >% c 0.) (acc "s" [ 1 ]) (neg (acc "s" [ -1 ])));
  Builder.output b "t";
  check_rows_match_oracle (Builder.finish b)

let test_rows_1d () =
  let b = Builder.create ~name:"line" ~shape:[ 9 ] () in
  Builder.input b "a";
  Builder.stencil b ~shrink:true ~boundary:[ ("a", Boundary.Copy) ] "s"
    E.(acc "a" [ -2 ] +% (acc "a" [ 3 ] *% acc "a" [ 0 ]));
  Builder.stencil b ~boundary:[ ("s", Boundary.Constant 5.) ] "t" E.(acc "s" [ 1 ] -% acc "s" [ -4 ]);
  Builder.output b "t";
  check_rows_match_oracle (Builder.finish b)

let test_rows_lower_dim_input () =
  (* [col] spans only the outer axis: one value per row, broadcast to
     every lane, and out of bounds for the whole last row. *)
  let b = Builder.create ~name:"col" ~shape:[ 3; 5 ] () in
  Builder.input b "u";
  Builder.input b ~axes:[ 0 ] "col";
  Builder.input b ~axes:[] "alpha";
  Builder.stencil b ~shrink:true
    ~boundary:[ ("col", Boundary.Constant (-1.)) ]
    "s"
    E.((acc "u" [ 0; 1 ] *% acc "col" [ 1 ]) +% sc "alpha");
  Builder.output b "s";
  check_rows_match_oracle (Builder.finish b)

let test_rows_boundaries_at_both_ends () =
  (* Offsets reach past both ends of every row, and past the first and
     last row, under Copy and Constant boundaries with shrink. *)
  let b = Builder.create ~name:"ends" ~shape:[ 3; 6 ] () in
  Builder.input b "a";
  Builder.stencil b ~shrink:true ~boundary:[ ("a", Boundary.Copy) ] "copy"
    E.(acc "a" [ 0; -2 ] +% acc "a" [ 1; 3 ]);
  Builder.stencil b ~shrink:true ~boundary:[ ("a", Boundary.Constant 7.) ] "const"
    E.(acc "a" [ -1; -1 ] *% acc "a" [ 0; 2 ]);
  Builder.stencil b ~shrink:true
    ~boundary:[ ("copy", Boundary.Copy); ("const", Boundary.Constant 0.5) ]
    ~lets:[ ("unused", E.(acc "copy" [ 0; 9 ])) ]
    "both"
    E.(acc "copy" [ 0; 1 ] -% acc "const" [ 0; -6 ]);
  Builder.output b "both";
  check_rows_match_oracle (Builder.finish b)

(* [run] frees each dead stage after its last consumer and reuses its
   arrays: its outputs must equal those of a run that keeps every stage,
   bit for bit and in the same order, and no two outputs may share
   storage. *)
let run_equals_every_stage p =
  let inputs = Interp.random_inputs ~seed:11 p in
  let all = Interp.run (every_stage p) ~inputs and outs = Interp.run p ~inputs in
  let bits r = Array.map Int64.bits_of_float r.Interp.tensor.Tensor.data in
  List.map fst outs
  = List.filter (fun n -> List.exists (String.equal n) p.Program.outputs) (List.map fst all)
  && List.for_all
       (fun (name, r) ->
         let e = List.assoc name all in
         bits r = bits e && r.Interp.valid = e.Interp.valid)
       outs
  && List.for_all
       (fun (n, r) ->
         List.for_all
           (fun (m, q) ->
             String.equal n m
             || (r.Interp.tensor.Tensor.data != q.Interp.tensor.Tensor.data
                && r.Interp.valid != q.Interp.valid))
           outs)
       outs

let test_run_frees_dead_stages () =
  (* A diamond fan-out (s0 feeds s1 and s2), an output that is consumed
     downstream (s1), shrink stages, and a tail chain that takes the
     freed stages' arrays. *)
  let b = Builder.create ~name:"live" ~shape:[ 4; 6 ] () in
  Builder.input b "a";
  Builder.stencil b "s0" E.(acc "a" [ 0; 1 ] +% acc "a" [ 1; 0 ]);
  Builder.stencil b ~shrink:true "s1" E.(acc "s0" [ 0; -1 ] *% c 2.);
  Builder.stencil b "s2" E.(acc "s0" [ 1; 1 ] -% acc "a" [ 0; 0 ]);
  Builder.stencil b "s3" E.(acc "s1" [ 0; 0 ] +% acc "s2" [ -1; 0 ]);
  Builder.stencil b "s4" E.(acc "s3" [ 0; 2 ] *% acc "s3" [ 0; -2 ]);
  Builder.stencil b ~shrink:true "s5" E.(acc "s4" [ 1; 0 ] +% acc "s1" [ 0; 1 ]);
  Builder.output b "s1";
  Builder.output b "s5";
  let p = Builder.finish b in
  Alcotest.(check bool) "run equals every stage" true (run_equals_every_stage p);
  let inputs = Interp.random_inputs ~seed:11 p in
  Alcotest.(check (list string)) "outputs only" [ "s1"; "s5" ] (List.map fst (Interp.run p ~inputs))

(* Random programs, with a drawn subset of the consumed stages made
   outputs too. *)
let prop_run_equals_every_stage =
  QCheck.Test.make ~count:200 ~name:"run equals the outputs of running every stage"
    (QCheck.pair Program_gen.arbitrary_program QCheck.small_nat)
    (fun (p, seed) ->
      let extra =
        List.filter_map
          (fun (s : Stencil.t) ->
            if Hashtbl.hash (seed, s.Stencil.name) mod 3 = 0 then Some s.Stencil.name else None)
          p.Program.stencils
      in
      let outputs =
        p.Program.outputs
        @ List.filter (fun n -> not (List.exists (String.equal n) p.Program.outputs)) extra
      in
      run_equals_every_stage { p with Program.outputs })

(* [prepare] does the checking and lowering; the function it returns
   evaluates, afresh on every call, exactly what [run] computes. *)
let prop_prepare_equals_run =
  QCheck.Test.make ~count:100 ~name:"prepare then evaluate equals run"
    Program_gen.arbitrary_program (fun p ->
      let inputs = Interp.random_inputs ~seed:5 p in
      let eval = Interp.prepare (Interp.plan (Program.check_exn p)) ~inputs in
      let expected = Interp.run p ~inputs in
      let same results =
        List.map fst results = List.map fst expected
        && List.for_all2
             (fun (_, (r : Interp.result)) (_, (e : Interp.result)) ->
               Array.map Int64.bits_of_float r.Interp.tensor.Tensor.data
               = Array.map Int64.bits_of_float e.Interp.tensor.Tensor.data
               && r.Interp.valid = e.Interp.valid)
             results expected
      in
      same (eval ()) && same (eval ()))

let test_prepare_raises_early () =
  let p = Fixtures.laplace2d () in
  (match Interp.prepare (Interp.plan (Program.check_exn p)) ~inputs:[] with
  | exception Interp.Runtime_error m ->
      Alcotest.(check string) "missing input" "missing input data for field a" m
  | (_ : unit -> _) -> Alcotest.fail "prepare must reject a missing input");
  (match
     Interp.prepare (Interp.plan (Program.check_exn p)) ~inputs:[ ("a", Tensor.create [ 8; 4 ]) ]
   with
  | exception Interp.Runtime_error _ -> ()
  | (_ : unit -> _) -> Alcotest.fail "prepare must reject a mis-shaped input");
  match
    Interp.prepare
      (Interp.plan (Program.check_exn { p with Program.outputs = [ "ghost" ] }))
      ~inputs:(Interp.random_inputs p)
  with
  | exception Invalid_argument _ -> ()
  | (_ : unit -> _) -> Alcotest.fail "prepare must reject a malformed program"

(* Reference definitions of [Tensor.of_fn] and [Interp.random_inputs]:
   a recursion over the axes that builds each multi-index list and
   stores through [Tensor.set]. The library fills each tensor in one
   row-major sweep, which must match these call for call and bit for
   bit. *)
let of_fn_by_recursion extent f =
  let t = Tensor.create extent in
  let rec iterate prefix = function
    | [] -> Tensor.set t (List.rev prefix) (f (List.rev prefix))
    | e :: rest ->
        for i = 0 to e - 1 do
          iterate (i :: prefix) rest
        done
  in
  iterate [] extent;
  t

let random_inputs_by_recursion ~seed (p : Program.t) =
  let state = Random.State.make [| seed |] in
  List.map
    (fun f ->
      let extent = Interp.input_extent p f in
      (f.Field.name, of_fn_by_recursion extent (fun _ -> Random.State.float state 2. -. 1.)))
    p.Program.inputs

let bits (t : Tensor.t) = Array.map Int64.bits_of_float t.Tensor.data

(* Same calls, in the same order, with the same index lists, and the
   same data. *)
let prop_of_fn_matches_recursion =
  let gen = QCheck.Gen.(list_size (int_range 0 3) (int_range 1 5)) in
  QCheck.Test.make ~count:200 ~name:"Tensor.of_fn matches its definition by recursion"
    (QCheck.make ~print:QCheck.Print.(list int) gen)
    (fun extent ->
      let build of_fn =
        let calls = ref [] in
        let t =
          of_fn extent (fun index ->
              calls := index :: !calls;
              Float.of_int (Hashtbl.hash (index, List.length !calls)) /. 7.)
        in
        (List.rev !calls, t)
      in
      let calls, t = build Tensor.of_fn and calls', t' = build of_fn_by_recursion in
      calls = calls' && t.Tensor.extent = t'.Tensor.extent && bits t = bits t')

(* Rank 1-3 programs, with lower-dimensional and scalar inputs. *)
let prop_random_inputs_match_recursion =
  QCheck.Test.make ~count:200 ~name:"random_inputs is bit-identical to its definition by recursion"
    (QCheck.pair Program_gen.arbitrary_program QCheck.small_nat)
    (fun (p, seed) ->
      let got = Interp.random_inputs ~seed p and want = random_inputs_by_recursion ~seed p in
      List.map fst got = List.map fst want
      && List.for_all2
           (fun (_, t) (_, t') -> t.Tensor.extent = t'.Tensor.extent && bits t = bits t')
           got want)

let suite =
  [
    Alcotest.test_case "tensor basics" `Quick test_tensor_basics;
    Alcotest.test_case "laplace values" `Quick test_laplace_center;
    Alcotest.test_case "copy boundary condition" `Quick test_copy_boundary;
    Alcotest.test_case "shrink validity mask" `Quick test_shrink_mask;
    Alcotest.test_case "lower-dimensional and scalar inputs" `Quick test_lower_dim_and_scalar;
    Alcotest.test_case "multi-stage dependencies" `Quick test_multi_stage_dependency;
    Alcotest.test_case "data-dependent branches" `Quick test_data_dependent_branch;
    Alcotest.test_case "missing input is reported" `Quick test_missing_input;
    Alcotest.test_case "non-short-circuit logic" `Quick test_non_shortcircuit_semantics;
    Alcotest.test_case "rows: rank-0 program and scalars" `Quick test_rows_rank0;
    Alcotest.test_case "rows: 1-D program" `Quick test_rows_1d;
    Alcotest.test_case "rows: lower-dimensional input" `Quick test_rows_lower_dim_input;
    Alcotest.test_case "rows: boundaries at both row ends" `Quick test_rows_boundaries_at_both_ends;
    Alcotest.test_case "run frees dead stages" `Quick test_run_frees_dead_stages;
    QCheck_alcotest.to_alcotest prop_run_equals_every_stage;
    QCheck_alcotest.to_alcotest prop_prepare_equals_run;
    Alcotest.test_case "prepare raises before it returns" `Quick test_prepare_raises_early;
    QCheck_alcotest.to_alcotest prop_of_fn_matches_recursion;
    QCheck_alcotest.to_alcotest prop_random_inputs_match_recursion;
  ]
