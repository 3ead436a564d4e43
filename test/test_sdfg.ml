open Sf_ir
module Sdfg = Sf_sdfg.Sdfg

let check_valid sdfg =
  match Sdfg.validate sdfg with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs)

let test_of_program_structure () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  let sdfg = Sdfg.of_program p in
  check_valid sdfg;
  let states, nodes, edges = Sdfg.stats sdfg in
  Alcotest.(check int) "one state" 1 states;
  Alcotest.(check bool) "nodes present" true (nodes > 4);
  Alcotest.(check bool) "edges present" true (edges > 4);
  (* The skip-edge stream a -> c carries the analysed delay buffer. *)
  match Sdfg.find_container sdfg "a__to__c" with
  | Some { Sdfg.storage = Sdfg.Stream { depth }; transient = true; _ } ->
      (* init 6 + default add latency 8 of b. *)
      Alcotest.(check int) "stream depth is the delay buffer" 14 depth
  | Some _ -> Alcotest.fail "a__to__c should be a transient stream"
  | None -> Alcotest.fail "missing stream container a__to__c"

let count_nodes pred g =
  let rec go g =
    List.fold_left
      (fun acc (_, n) ->
        let nested =
          match n with
          | Sdfg.Pipeline { body; _ } | Sdfg.Unrolled_map { body; _ } -> go body
          | Sdfg.Access _ | Sdfg.Tasklet _ | Sdfg.Stencil_node _ -> 0
        in
        acc + nested + if pred n then 1 else 0)
      0 g.Sdfg.nodes
  in
  go g

let count_in_sdfg pred (sdfg : Sdfg.t) =
  List.fold_left (fun acc st -> acc + count_nodes pred st.Sdfg.body) 0 sdfg.Sdfg.states

let test_expansion () =
  let p = Fixtures.laplace2d ~shape:[ 8; 8 ] () in
  let sdfg = Sdfg.expand_library_nodes (Sdfg.of_program p) in
  check_valid sdfg;
  Alcotest.(check int) "no library nodes remain" 0
    (count_in_sdfg (function Sdfg.Stencil_node _ -> true | _ -> false) sdfg);
  Alcotest.(check int) "one pipeline scope" 1
    (count_in_sdfg (function Sdfg.Pipeline _ -> true | _ -> false) sdfg);
  Alcotest.(check bool) "shift phase present" true
    (count_in_sdfg (function Sdfg.Unrolled_map _ -> true | _ -> false) sdfg > 0);
  (* The laplace accesses span [-I, +I]: shift register of 2I + W. *)
  match Sdfg.find_container sdfg "sr_lap__a" with
  | Some { Sdfg.extent = [ size ]; storage = Sdfg.On_chip; _ } ->
      Alcotest.(check int) "shift register size" ((2 * 8) + 1) size
  | Some _ | None -> Alcotest.fail "expected shift register container sr_lap__a"

let test_expansion_pipeline_phases () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  let sdfg = Sdfg.expand_library_nodes (Sdfg.of_program p) in
  check_valid sdfg;
  (* b has init phase 6 cycles (span 6 buffer). *)
  let found = ref false in
  let rec scan g =
    List.iter
      (fun (_, n) ->
        match n with
        | Sdfg.Pipeline { label; init_cycles; body; _ } ->
            if String.equal label "pipeline_b" then begin
              found := true;
              Alcotest.(check int) "init cycles" 6 init_cycles
            end;
            scan body
        | Sdfg.Unrolled_map { body; _ } -> scan body
        | Sdfg.Access _ | Sdfg.Tasklet _ | Sdfg.Stencil_node _ -> ())
      g.Sdfg.nodes
  in
  List.iter (fun st -> scan st.Sdfg.body) sdfg.Sdfg.states;
  Alcotest.(check bool) "pipeline_b found" true !found

let test_validate_catches_corruption () =
  let p = Fixtures.laplace2d () in
  let sdfg = Sdfg.of_program p in
  let broken =
    {
      sdfg with
      Sdfg.states =
        List.map
          (fun st ->
            {
              st with
              Sdfg.body =
                {
                  st.Sdfg.body with
                  Sdfg.edges =
                    { Sdfg.src = 999; dst = 0; data = "x"; subset = "" } :: st.Sdfg.body.Sdfg.edges;
                };
            })
          sdfg.Sdfg.states;
    }
  in
  match Sdfg.validate broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected validation failure"

(* Two programs whose container names met when names were joined
   as-is: edges [a -> b__to__c] and [a__to__b -> c] (both streams were
   [a__to__b__to__c]), and stencil [a_b] reading [c] beside stencil [a]
   reading [b_c] (both shift registers were [sr_a_b_c]). *)
let test_container_names_distinct () =
  let module E = Builder.E in
  let streams =
    let b = Builder.create ~name:"streams" ~shape:[ 4; 8 ] () in
    Builder.input b "x";
    Builder.stencil b "a" E.(acc "x" [ 0; 0 ]);
    Builder.stencil b "b__to__c" E.(acc "a" [ 0; 0 ]);
    Builder.stencil b "a__to__b" E.(acc "x" [ 0; 0 ]);
    Builder.stencil b "c" E.(acc "a__to__b" [ 0; 0 ]);
    Builder.output b "b__to__c";
    Builder.output b "c";
    Builder.finish b
  in
  let registers =
    let b = Builder.create ~name:"registers" ~shape:[ 4; 8 ] () in
    Builder.input b "c";
    Builder.input b "b_c";
    Builder.stencil b "a_b" E.(acc "c" [ 0; -1 ] +% acc "c" [ 0; 1 ]);
    Builder.stencil b "a" E.(acc "b_c" [ 0; -1 ] +% acc "b_c" [ 0; 1 ]);
    Builder.output b "a_b";
    Builder.output b "a";
    Builder.finish b
  in
  List.iter
    (fun p ->
      List.iter
        (fun (what, (sdfg : Sdfg.t)) ->
          check_valid sdfg;
          let names = List.map (fun c -> c.Sdfg.cname) sdfg.Sdfg.containers in
          Alcotest.(check int)
            (p.Program.name ^ " " ^ what ^ ": distinct container names")
            (List.length names)
            (List.length (List.sort_uniq String.compare names)))
        [ ("lowered", Sdfg.of_program p);
          ("expanded", Sdfg.expand_library_nodes (Sdfg.of_program p)) ])
    [ streams; registers ];
  let has sdfg name = Option.is_some (Sdfg.find_container sdfg name) in
  let expanded = Sdfg.expand_library_nodes (Sdfg.of_program registers) in
  Alcotest.(check bool) "plain names are kept" true
    (has expanded "sr_a_b__c" && has expanded "sr_a__b_c")

let suite =
  [
    Alcotest.test_case "lowering structure and stream depths" `Quick test_of_program_structure;
    Alcotest.test_case "library node expansion (fig 12)" `Quick test_expansion;
    Alcotest.test_case "pipeline scope init phases" `Quick test_expansion_pipeline_phases;
    Alcotest.test_case "validation catches dangling edges" `Quick test_validate_catches_corruption;
    Alcotest.test_case "container names are distinct under colliding names" `Quick
      test_container_names_distinct;
  ]
