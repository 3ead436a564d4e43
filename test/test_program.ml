open Sf_ir
module E = Builder.E
module Program_json = Sf_frontend.Program_json

let test_valid_programs () =
  List.iter
    (fun p -> match Program.check p with
      | Ok _ -> ()
      | Error errs -> Alcotest.fail (String.concat "; " errs))
    [
      Fixtures.laplace2d ();
      Fixtures.diamond ();
      Fixtures.chain ();
      Fixtures.kitchen_sink ();
      Fixtures.fork ();
    ]

let expect_invalid name build =
  Alcotest.test_case name `Quick (fun () ->
      match build () with
      | exception Invalid_argument _ -> ()
      | p -> (
          match Program.check p with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "expected validation failure"))

let invalid_cases =
  [
    expect_invalid "undeclared field access" (fun () ->
        let b = Builder.create ~name:"bad" ~shape:[ 4; 4 ] () in
        Builder.input b "a";
        Builder.stencil b "s" E.(acc "ghost" [ 0; 0 ]);
        Builder.output b "s";
        Builder.finish b);
    expect_invalid "offset rank mismatch" (fun () ->
        let b = Builder.create ~name:"bad" ~shape:[ 4; 4 ] () in
        Builder.input b "a";
        Builder.stencil b "s" E.(acc "a" [ 0 ]);
        Builder.output b "s";
        Builder.finish b);
    expect_invalid "duplicate names" (fun () ->
        let b = Builder.create ~name:"bad" ~shape:[ 4; 4 ] () in
        Builder.input b "a";
        Builder.stencil b "a" E.(c 1.);
        Builder.output b "a";
        Builder.finish b);
    expect_invalid "no outputs" (fun () ->
        let b = Builder.create ~name:"bad" ~shape:[ 4; 4 ] () in
        Builder.input b "a";
        Builder.stencil b "s" E.(acc "a" [ 0; 0 ]);
        Builder.finish b);
    expect_invalid "self access" (fun () ->
        let b = Builder.create ~name:"bad" ~shape:[ 4; 4 ] () in
        Builder.input b "a";
        Builder.stencil b "s" E.(acc "a" [ 0; 0 ] +% acc "s" [ 0; -1 ]);
        Builder.output b "s";
        Builder.finish b);
    expect_invalid "dependency cycle" (fun () ->
        let b = Builder.create ~name:"bad" ~shape:[ 4; 4 ] () in
        Builder.input b "a";
        Builder.stencil b "s" E.(acc "t" [ 0; 0 ]);
        Builder.stencil b "t" E.(acc "s" [ 0; 0 ]);
        Builder.output b "t";
        Builder.finish b);
    expect_invalid "dead stencil" (fun () ->
        let b = Builder.create ~name:"bad" ~shape:[ 4; 4 ] () in
        Builder.input b "a";
        Builder.stencil b "s" E.(acc "a" [ 0; 0 ]);
        Builder.stencil b "dead" E.(acc "a" [ 0; 0 ]);
        Builder.output b "s";
        Builder.finish b);
    expect_invalid "vector width does not divide innermost" (fun () ->
        let b = Builder.create ~vector_width:3 ~name:"bad" ~shape:[ 4; 8 ] () in
        Builder.input b "a";
        Builder.stencil b "s" E.(acc "a" [ 0; 0 ]);
        Builder.output b "s";
        Builder.finish b);
    expect_invalid "unbound variable" (fun () ->
        let b = Builder.create ~name:"bad" ~shape:[ 4; 4 ] () in
        Builder.input b "a";
        Builder.stencil b "s" E.(var "nowhere" +% acc "a" [ 0; 0 ]);
        Builder.output b "s";
        Builder.finish b);
    expect_invalid "boundary for unread field" (fun () ->
        let b = Builder.create ~name:"bad" ~shape:[ 4; 4 ] () in
        Builder.input b "a";
        Builder.input b "unused_in_s";
        Builder.stencil b
          ~boundary:[ ("unused_in_s", Boundary.Copy) ]
          "s"
          E.(acc "a" [ 0; 0 ]);
        Builder.stencil b "t" E.(acc "unused_in_s" [ 0; 0 ] +% acc "s" [ 0; 0 ]);
        Builder.output b "t";
        Builder.finish b);
    expect_invalid "axes out of range" (fun () ->
        let b = Builder.create ~name:"bad" ~shape:[ 4; 4 ] () in
        Builder.input b ~axes:[ 2 ] "a";
        Builder.stencil b "s" E.(acc "a" [ 0 ]);
        Builder.output b "s";
        Builder.finish b);
  ]

module G = Fixtures.G

let test_graph_structure () =
  let p = Fixtures.diamond () in
  let c = Program.check_exn p in
  let names = [ "x"; "a"; "b"; "c" ] in
  let is_source n =
    match Program.Checked.find c n with
    | Program.Input _ -> true
    | Program.Op _ -> Program.Checked.reads c n = []
  in
  Alcotest.(check (list string)) "sources" [ "x" ] (List.filter is_source names);
  Alcotest.(check (list string)) "sinks" [ "c" ]
    (List.filter (fun n -> Program.Checked.consumers c n = []) names);
  Alcotest.(check (list string)) "reads of c" [ "a"; "b" ] (Program.Checked.reads c "c");
  Alcotest.(check (list (pair string (list int)))) "accesses of c"
    (Stencil.accesses (Option.get (Program.find_stencil p "c")))
    (Program.Checked.accesses c "c");
  Alcotest.(check (list string)) "consumers of a" [ "b"; "c" ] (Program.consumers p "a")

let test_topological_stencils () =
  let p = Fixtures.diamond () in
  let names = List.map (fun s -> s.Stencil.name) (Program.topological_stencils p) in
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] names

(* The definition [Program.topological_stencils] had before it looked
   names up in a table and the sort became linear: Kahn's algorithm
   taking ready vertices in insertion order, rescanning the remaining
   vertices per step, then one [find_stencil] per vertex. *)
let reference_topological_stencils p =
  let g = Fixtures.graph p in
  let order = List.map fst (G.vertices g) in
  let in_deg = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace in_deg v (G.in_degree g v)) order;
  let rec go sorted ready remaining =
    match ready with
    | [] -> if remaining = [] then List.rev sorted else invalid_arg "cycle"
    | v :: rest ->
        let newly =
          List.filter_map
            (fun (s, ()) ->
              let d = Hashtbl.find in_deg s - 1 in
              Hashtbl.replace in_deg s d;
              if d = 0 then Some s else None)
            (G.succs g v)
        in
        go (v :: sorted) (rest @ newly) (List.filter (fun u -> u <> v) remaining)
  in
  List.filter_map (Program.find_stencil p)
    (go [] (List.filter (fun v -> Hashtbl.find in_deg v = 0) order) order)

(* Generated programs, and the same programs with their stencils listed
   in reverse, which changes the graph's insertion order. *)
let prop_topological_matches_reference =
  QCheck.Test.make ~count:200 ~name:"topological stencil order matches its old definition"
    Program_gen.arbitrary_program (fun p ->
      List.for_all
        (fun p ->
          List.map (fun s -> s.Stencil.name) (Program.topological_stencils p)
          = List.map (fun s -> s.Stencil.name) (reference_topological_stencils p))
        [ p; { p with Program.stencils = List.rev p.Program.stencils } ])

(* The verdict [Program.check] gave (as [validate]) before it collected
   each body's accesses once: the self-read check, the boundary check
   and the dependency graph each walked the body again. *)
let reference_validate (t : Program.t) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let d = Program.rank t in
  if d < 1 || d > 3 then err "program %s: iteration space must have 1-3 dimensions" t.name;
  List.iter (fun ext -> if ext <= 0 then err "program %s: non-positive extent %d" t.name ext) t.shape;
  if t.vector_width < 1 then err "program %s: vector width must be positive" t.name;
  (match List.rev t.shape with
  | innermost :: _ when t.vector_width > 0 && innermost mod t.vector_width <> 0 ->
      err "program %s: vector width %d does not divide innermost extent %d" t.name
        t.vector_width innermost
  | _ -> ());
  if t.outputs = [] then err "program %s: no outputs declared" t.name;
  let names = List.map (fun f -> f.Field.name) t.inputs @ List.map (fun s -> s.Stencil.name) t.stencils in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n -> if Hashtbl.mem seen n then err "duplicate name %s" n else Hashtbl.add seen n ())
    names;
  List.iter
    (fun f -> match Field.validate f ~full_rank:d with Ok () -> () | Error m -> err "%s" m)
    t.inputs;
  List.iter
    (fun s ->
      let body = s.Stencil.body in
      let bound = Hashtbl.create 8 in
      let check_expr expr =
        List.iter
          (fun v ->
            if not (Hashtbl.mem bound v) then
              err "stencil %s: unbound variable %s (not a declared field or prior let)"
                s.Stencil.name v)
          (Expr.free_vars expr);
        List.iter
          (fun (field, offsets) ->
            if Hashtbl.mem seen field then begin
              let want = List.length (Program.field_axes t field) in
              let got = List.length offsets in
              if want <> got then
                err "stencil %s: access %s has %d offsets but the field spans %d axes"
                  s.Stencil.name field got want
            end
            else err "stencil %s: access to undeclared field %s" s.Stencil.name field)
          (Expr.accesses expr)
      in
      List.iter
        (fun (v, e) ->
          check_expr e;
          Hashtbl.replace bound v ())
        body.Expr.lets;
      check_expr body.Expr.result;
      if List.exists (fun (f, _) -> String.equal f s.Stencil.name) (Stencil.accesses s) then
        err "stencil %s: reads its own output (cycle)" s.Stencil.name;
      let inputs_read = Stencil.input_fields s in
      List.iter
        (fun (f, _) ->
          if not (List.exists (String.equal f) inputs_read) then
            err "stencil %s: boundary condition for unread field %s" s.Stencil.name f)
        s.Stencil.boundary)
    t.stencils;
  List.iter
    (fun o -> if Program.find_stencil t o = None then err "declared output %s is not a stencil" o)
    t.outputs;
  if !errors = [] then begin
    let g = Fixtures.graph t in
    (match G.topological_sort g with
    | Ok _ -> ()
    | Error cyc -> err "program %s: dependency cycle through {%s}" t.name (String.concat ", " cyc));
    let live = G.reachable_from (G.transpose g) t.outputs in
    List.iter
      (fun s ->
        if not (List.exists (String.equal s.Stencil.name) live) then
          err "stencil %s does not contribute to any output (dead code)" s.Stencil.name)
      t.stencils
  end;
  match List.rev !errors with [] -> Ok () | errs -> Error errs

(* Faults injected into a generated program, each aimed at one check of
   [Program.check]; [k] picks the stencil (or field) it hits. *)
let inject (p : Program.t) (fault, k) =
  let nth l = List.nth l (k mod List.length l) in
  let victim = nth p.Program.stencils in
  let update f =
    {
      p with
      Program.stencils =
        List.map (fun s -> if s == victim then f s else s) p.Program.stencils;
    }
  in
  let zeros = List.map (fun _ -> 0) p.Program.shape in
  let with_result s result = { s with Stencil.body = { s.Stencil.body with Expr.result } } in
  let plus s e = Expr.Binary (Expr.Add, s.Stencil.body.Expr.result, e) in
  match fault with
  | 0 -> update (fun s -> with_result s (plus s (Expr.Access { field = s.Stencil.name; offsets = zeros })))
  | 1 -> update (fun s -> { s with Stencil.boundary = ("ghost", Boundary.Copy) :: s.Stencil.boundary })
  | 2 -> update (fun s -> with_result s (plus s (Expr.Access { field = "ghost"; offsets = zeros })))
  | 3 -> update (fun s -> with_result s (plus s (Expr.Access { field = (nth p.Program.stencils).Stencil.name; offsets = [ 0 ] @ zeros })))
  | 4 -> update (fun s -> with_result s (plus s (Expr.Var "unbound")))
  | 5 -> { p with Program.stencils = p.Program.stencils @ [ victim ] }
  | 6 -> { p with Program.outputs = p.Program.outputs @ [ "nowhere" ] }
  | 7 ->
      (* The first stencil reads the last one: a cycle whenever the last
         depends on the first, dead code or nothing otherwise. *)
      let last = List.nth p.Program.stencils (List.length p.Program.stencils - 1) in
      let first = List.hd p.Program.stencils in
      {
        p with
        Program.stencils =
          List.map
            (fun s ->
              if s == first then with_result s (plus s (Expr.Access { field = last.Stencil.name; offsets = zeros }))
              else s)
            p.Program.stencils;
      }
  | 8 ->
      let dead = { victim with Stencil.name = "dead" ^ string_of_int k } in
      { p with Program.stencils = p.Program.stencils @ [ dead ] }
  | 9 -> { p with Program.vector_width = 3 + (k mod 2) }
  | _ -> { p with Program.outputs = [] }

let arbitrary_faulty_program =
  let open QCheck in
  let faults = Gen.(list_size (int_range 0 3) (pair (int_range 0 10) (int_range 0 7))) in
  make
    ~print:(fun (p, fs) ->
      Format.asprintf "%a@.faults %s" Program.pp p
        (String.concat " " (List.map (fun (f, k) -> Printf.sprintf "%d/%d" f k) fs)))
    Gen.(pair Program_gen.program_gen faults)

let prop_validate_matches_reference =
  QCheck.Test.make ~count:300 ~name:"validate matches its old definition"
    arbitrary_faulty_program (fun (p, faults) ->
      let p = List.fold_left inject p faults in
      Result.map ignore (Program.check p) = reference_validate p)

(* [check] hands back what it derives: on a valid program each fact
   equals the definition it replaces, and on an invalid one it fails
   with the old definition's errors. Generated programs, plain and adversarial,
   with the faults of "validate matches its old definition" injected. *)
let prop_check_facts_match_definitions =
  let faulty_program gen =
    QCheck.Gen.(pair gen (list_size (int_range 0 2) (pair (int_range 0 10) (int_range 0 7))))
  in
  QCheck.Test.make ~count:300 ~name:"check's facts equal their definitions"
    (QCheck.make
       ~print:(fun (p, _) -> Format.asprintf "%a" Program.pp p)
       (QCheck.Gen.oneof
          [
            faulty_program Program_gen.program_gen;
            faulty_program Program_gen.adversarial_program_gen;
            QCheck.Gen.map (fun p -> (p, [])) Program_gen.adversarial_program_gen;
          ]))
    (fun (p, faults) ->
      let p = List.fold_left inject p faults in
      let names = List.map (fun s -> s.Stencil.name) in
      match Program.check p with
      | Error errs ->
          Result.map ignore (Program.check p) = Error errs && reference_validate p = Error errs
      | Ok c ->
          let fields =
            List.map (fun f -> f.Field.name) p.Program.inputs @ names p.Program.stencils
          in
          reference_validate p = Ok ()
          && Program.Checked.program c == p
          && names (Program.Checked.order c) = names (Program.topological_stencils p)
          && List.for_all
               (fun s ->
                 Program.Checked.reads c s.Stencil.name = Stencil.input_fields s
                 && (match Program.Checked.find c s.Stencil.name with
                    | Program.Op s' -> s' == s
                    | Program.Input _ -> false))
               p.Program.stencils
          && List.for_all
               (fun f ->
                 Program.Checked.axes c f = Program.field_axes p f
                 && Program.Checked.consumers c f = Program.consumers p f)
               fields
          && Program.Checked.consumers c "nowhere" = [])

let test_strides () =
  let p = Fixtures.kitchen_sink ~shape:[ 4; 6; 8 ] () in
  Alcotest.(check (list int)) "strides" [ 48; 8; 1 ] (Program.strides p);
  Alcotest.(check int) "cells" 192 (Program.cells p)

let test_field_axes () =
  let p = Fixtures.kitchen_sink () in
  Alcotest.(check (list int)) "full" [ 0; 1; 2 ] (Program.field_axes p "u");
  Alcotest.(check (list int)) "row" [ 1 ] (Program.field_axes p "crlat");
  Alcotest.(check (list int)) "scalar" [] (Program.field_axes p "alpha");
  Alcotest.(check (list int)) "stencil output" [ 0; 1; 2 ] (Program.field_axes p "lap")

let roundtrip_program p () =
  let json = Program_json.to_json p in
  let reparsed = Fixtures.ok (Program_json.of_json json) in
  Alcotest.(check string) "name" p.Program.name reparsed.Program.name;
  Alcotest.(check (list int)) "shape" p.Program.shape reparsed.Program.shape;
  Alcotest.(check int) "stencil count" (List.length p.Program.stencils)
    (List.length reparsed.Program.stencils);
  List.iter2
    (fun (a : Stencil.t) (b : Stencil.t) ->
      Alcotest.(check string) "stencil name" a.Stencil.name b.Stencil.name;
      Alcotest.(check bool)
        (Printf.sprintf "stencil %s body" a.Stencil.name)
        true
        (Expr.equal
           (Dag.to_expr (Dag.of_body a.Stencil.body))
           (Dag.to_expr (Dag.of_body b.Stencil.body)));
      Alcotest.(check bool) "boundaries" true (Stencil.equal_boundaries a b))
    p.Program.stencils reparsed.Program.stencils;
  Alcotest.(check (list string)) "outputs" p.Program.outputs reparsed.Program.outputs

let test_parse_document () =
  let src =
    {|
    {
      "name": "doc",
      "shape": [4, 8],
      "inputs": {"a": {}, "alpha": {"axes": []}},
      "stencils": {
        "s": {
          "code": "t = a[0, -1] + a[0, 1]; s = t * alpha;",
          "boundary": {"a": {"type": "copy"}}
        }
      },
      "outputs": ["s"]
    }
  |}
  in
  let p = Fixtures.ok (Program_json.of_string src) in
  Alcotest.(check int) "one stencil" 1 (List.length p.Program.stencils);
  let s = List.hd p.Program.stencils in
  Alcotest.(check bool) "copy boundary" true
    (Boundary.equal Boundary.Copy (Stencil.boundary_for s "a"));
  (* alpha resolved to a scalar access, so it appears among the inputs. *)
  Alcotest.(check bool) "alpha read" true
    (List.exists (String.equal "alpha") (Stencil.input_fields s))

let test_format_errors () =
  let fails src =
    match Program_json.of_string src with
    | Error (_ :: _) -> ()
    | Error [] -> Alcotest.fail ("format error without diagnostics for " ^ src)
    | Ok _ -> Alcotest.fail ("expected format error for " ^ src)
  in
  fails {| {"shape": [4]} |};
  fails {| {"shape": [4], "stencils": {}, "outputs": []} |};
  fails
    {| {"shape": [4], "stencils": {"s": {"code": "s = q[0];"}}, "outputs": ["s"]} |};
  fails
    {| {"shape": [4], "inputs": {"a": {}},
        "stencils": {"s": {"code": "s = a[0];", "boundary": {"a": {"type": "mirror"}}}},
        "outputs": ["s"]} |}

(* Reference definition of a body's accesses, without the DAG: each
   binding's deduplicated accesses, computed once against the earlier
   bindings and replayed where a later expression names it; unbound
   names contribute nothing. *)
let body_accesses_by_replay { Expr.lets; result } =
  let rec collect env acc (e : Expr.t) =
    match e with
    | Expr.Access { field; offsets } -> (field, offsets) :: acc
    | Expr.Var v -> (
        match Hashtbl.find_opt env v with Some l -> List.rev_append l acc | None -> acc)
    | Expr.Const _ -> acc
    | Expr.Unary (_, x) -> collect env acc x
    | Expr.Binary (_, x, y) -> collect env (collect env acc x) y
    | Expr.Select { cond; if_true; if_false } ->
        collect env (collect env (collect env acc cond) if_true) if_false
    | Expr.Call (_, args) -> List.fold_left (collect env) acc args
  in
  let dedup l =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun x ->
        let fresh = not (Hashtbl.mem seen x) in
        Hashtbl.replace seen x ();
        fresh)
      l
  in
  let expr_accesses env e = dedup (List.rev (collect env [] e)) in
  let env = Hashtbl.create 16 in
  List.iter (fun (n, e) -> Hashtbl.replace env n (expr_accesses env e)) lets;
  expr_accesses env result

(* Bodies whose lets draw names from a small pool and reference the
   pool freely: unused lets, shadowed names, forward references and a
   name that is never bound all occur. *)
let adversarial_body_gen =
  let open QCheck.Gen in
  let names = [ "t0"; "t1"; "t2"; "free" ] in
  let leaf =
    frequency
      [
        (1, map (fun c -> Expr.Const (Float.of_int c)) (int_range (-2) 2));
        ( 3,
          let* field = oneofl [ "a"; "b"; "c" ] in
          let* offsets = list_repeat 2 (int_range (-1) 1) in
          return (Expr.Access { field; offsets }) );
        (2, map (fun v -> Expr.Var v) (oneofl names));
      ]
  in
  let rec expr depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (1, map (fun x -> Expr.Unary (Expr.Neg, x)) (expr (depth - 1)));
          (3, map2 (fun x y -> Expr.Binary (Expr.Add, x, y)) (expr (depth - 1)) (expr (depth - 1)));
          ( 1,
            map3
              (fun cond if_true if_false -> Expr.Select { cond; if_true; if_false })
              (expr (depth - 1)) (expr (depth - 1)) (expr (depth - 1)) );
          (1, map2 (fun x y -> Expr.Call (Expr.Max, [ x; y ])) (expr (depth - 1)) (expr (depth - 1)));
        ]
  in
  let* lets = list_size (int_range 0 5) (pair (oneofl [ "t0"; "t1"; "t2" ]) (expr 3)) in
  let* result = expr 3 in
  return { Expr.lets; result }

let prop_stencil_accesses_match_replay =
  let gen =
    QCheck.Gen.(
      oneof
        [
          adversarial_body_gen;
          map
            (fun (p : Program.t) -> (List.hd (List.rev p.Program.stencils)).Stencil.body)
            Program_gen.program_gen;
          map
            (fun (p : Program.t) -> (List.hd p.Program.stencils).Stencil.body)
            Program_gen.adversarial_program_gen;
        ])
  in
  QCheck.Test.make ~count:500 ~name:"Stencil.accesses equals the accesses by let replay"
    (QCheck.make ~print:Expr.body_to_string gen)
    (fun body ->
      Stencil.accesses (Stencil.make ~name:"s" body) = body_accesses_by_replay body)

let suite =
  [
    Alcotest.test_case "fixture programs validate" `Quick test_valid_programs;
    Alcotest.test_case "graph structure" `Quick test_graph_structure;
    Alcotest.test_case "topological stencil order" `Quick test_topological_stencils;
    QCheck_alcotest.to_alcotest prop_topological_matches_reference;
    QCheck_alcotest.to_alcotest prop_validate_matches_reference;
    QCheck_alcotest.to_alcotest prop_check_facts_match_definitions;
    Alcotest.test_case "strides and cells" `Quick test_strides;
    Alcotest.test_case "field axes resolution" `Quick test_field_axes;
    Alcotest.test_case "json roundtrip laplace" `Quick (roundtrip_program (Fixtures.laplace2d ()));
    Alcotest.test_case "json roundtrip kitchen sink" `Quick
      (roundtrip_program (Fixtures.kitchen_sink ()));
    Alcotest.test_case "json roundtrip fork" `Quick (roundtrip_program (Fixtures.fork ()));
    Alcotest.test_case "parse full document" `Quick test_parse_document;
    Alcotest.test_case "format errors" `Quick test_format_errors;
    QCheck_alcotest.to_alcotest prop_stencil_accesses_match_replay;
  ]
  @ invalid_cases
