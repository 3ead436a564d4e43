open Sf_ir
module E = Builder.E
module Program_json = Sf_frontend.Program_json

let test_valid_programs () =
  List.iter
    (fun p -> match Program.validate p with
      | Ok () -> ()
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
          match Program.validate p with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "expected validation failure"))

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

let test_graph_structure () =
  let p = Fixtures.diamond () in
  let g = Program.graph p in
  Alcotest.(check int) "vertices" 4 (Program.G.num_vertices g);
  Alcotest.(check (list string)) "sources" [ "x" ] (Program.G.sources g);
  Alcotest.(check (list string)) "sinks" [ "c" ] (Program.G.sinks g);
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
  let g = Program.graph p in
  let order = List.map fst (Program.G.vertices g) in
  let in_deg = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace in_deg v (Program.G.in_degree g v)) order;
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
            (Program.G.succs g v)
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
        (Expr.equal (Expr.inline_lets a.Stencil.body) (Expr.inline_lets b.Stencil.body));
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

let suite =
  [
    Alcotest.test_case "fixture programs validate" `Quick test_valid_programs;
    Alcotest.test_case "graph structure" `Quick test_graph_structure;
    Alcotest.test_case "topological stencil order" `Quick test_topological_stencils;
    QCheck_alcotest.to_alcotest prop_topological_matches_reference;
    Alcotest.test_case "strides and cells" `Quick test_strides;
    Alcotest.test_case "field axes resolution" `Quick test_field_axes;
    Alcotest.test_case "json roundtrip laplace" `Quick (roundtrip_program (Fixtures.laplace2d ()));
    Alcotest.test_case "json roundtrip kitchen sink" `Quick
      (roundtrip_program (Fixtures.kitchen_sink ()));
    Alcotest.test_case "json roundtrip fork" `Quick (roundtrip_program (Fixtures.fork ()));
    Alcotest.test_case "parse full document" `Quick test_parse_document;
    Alcotest.test_case "format errors" `Quick test_format_errors;
  ]
  @ invalid_cases
