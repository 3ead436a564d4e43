open Sf_ir
module Sdfg = Sf_sdfg.Sdfg
module Transform = Sf_sdfg.Transform
module Interp = Sf_reference.Interp
module Tensor = Sf_reference.Tensor

let check_valid sdfg =
  match Sdfg.validate sdfg with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs)

let semantically_equal p q =
  (* Same outputs on the same random inputs. *)
  let inputs = Interp.random_inputs p in
  let rp = Interp.run p ~inputs and rq = Interp.run q ~inputs in
  List.for_all
    (fun (name, (r : Interp.result)) ->
      match List.assoc_opt name rq with
      | None -> false
      | Some r' -> Tensor.max_abs_diff r.Interp.tensor r'.Interp.tensor < 1e-12)
    rp

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

let test_extract_roundtrip () =
  List.iter
    (fun p ->
      let sdfg = Sdfg.of_program p in
      match Sdfg.extract_program sdfg with
      | Error m -> Alcotest.fail m
      | Ok q ->
          Alcotest.(check int)
            (p.Program.name ^ ": stencil count")
            (List.length p.Program.stencils)
            (List.length q.Program.stencils);
          Alcotest.(check bool) (p.Program.name ^ ": semantics") true (semantically_equal p q))
    [
      Fixtures.laplace2d ();
      Fixtures.diamond ();
      Fixtures.kitchen_sink ();
      Fixtures.fork ();
    ]

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

let test_map_fission () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:2 () in
  let fissioned = Transform.map_fission (Sdfg.of_program p) in
  check_valid fissioned;
  Alcotest.(check int) "one state per stencil" 3 (List.length fissioned.Sdfg.states);
  (* Intermediates become transient off-chip arrays. *)
  (match Sdfg.find_container fissioned "a" with
  | Some { Sdfg.storage = Sdfg.Off_chip; transient = true; _ } -> ()
  | Some _ | None -> Alcotest.fail "intermediate a should be transient off-chip");
  (match Sdfg.find_container fissioned "c" with
  | Some { Sdfg.transient = false; _ } -> ()
  | Some _ | None -> Alcotest.fail "output c stays externally visible");
  match Sdfg.extract_program fissioned with
  | Error m -> Alcotest.fail m
  | Ok q -> Alcotest.(check bool) "semantics preserved" true (semantically_equal p q)

let test_state_fusion_roundtrip () =
  let p = Fixtures.kitchen_sink () in
  let refused = Transform.state_fusion (Transform.map_fission (Sdfg.of_program p)) in
  check_valid refused;
  Alcotest.(check int) "single state" 1 (List.length refused.Sdfg.states);
  match Sdfg.extract_program refused with
  | Error m -> Alcotest.fail m
  | Ok q ->
      Alcotest.(check bool) "semantics preserved" true (semantically_equal p q);
      (* Streams are back. *)
      Alcotest.(check bool) "streams rebuilt" true
        (List.exists
           (fun c -> match c.Sdfg.storage with Sdfg.Stream _ -> true | _ -> false)
           refused.Sdfg.containers)

let test_nest_dim () =
  let p2d = Fixtures.laplace2d ~shape:[ 6; 8 ] () in
  let p3d = Transform.nest_dim p2d ~extent:4 in
  Alcotest.(check (list int)) "lifted shape" [ 4; 6; 8 ] p3d.Program.shape;
  (* Inputs span the inner axes only. *)
  Alcotest.(check (list int)) "input axes" [ 1; 2 ] (Program.field_axes p3d "a");
  (* Every outer slice equals the 2D program's result. *)
  let a2d = List.assoc "a" (Interp.random_inputs p2d) in
  let r2d = (List.assoc "lap" (Interp.run p2d ~inputs:[ ("a", a2d) ])).Interp.tensor in
  let r3d =
    (List.assoc "lap" (Interp.run p3d ~inputs:[ ("a", a2d) ])).Interp.tensor
  in
  List.iter
    (fun k ->
      List.iter
        (fun j ->
          List.iter
            (fun i ->
              Alcotest.(check (float 1e-12))
                (Printf.sprintf "slice %d cell (%d,%d)" k j i)
                (Tensor.get r2d [ j; i ])
                (Tensor.get r3d [ k; j; i ]))
            (Sf_support.Util.range 8))
        (Sf_support.Util.range 6))
    (Sf_support.Util.range 4)

let test_nest_dim_rejects_3d () =
  match Transform.nest_dim (Fixtures.kitchen_sink ()) ~extent:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lifting a 3D program must fail"

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

(* Map fission and state fusion of every shipped program, pinned by the
   digest of the whole SDFG value (marshalled without sharing, so the
   digest reads every field, every body and every float's bits):
   (file, map_fission, state_fusion of that). *)
let transform_digests =
  [
    ("acoustic_wave.json", "d79f2b6645ab821a24f69f8479f708d4", "2c15950ca1d6f41b633e71ae7bf31c56");
    ("diamond.json", "cee977b298935c0af0570ec7e61766df", "8c0a5eaea2d4b736950167332e506821");
    ("hdiff_2dev.json", "e6f51554d2e9f1619f2e29da592d2dec", "c2f064479a24f415b03e2aaf3efa3926");
    ("horizontal_diffusion_small.json", "bf32a4cace87ae651a9a6f19f5d0e786", "58a34a76bd41a81f5ef48f7cd08a9940");
    ("jacobi2d_8stage.json", "fdcfdfd5f18ff258daa5f0ba4c2a74df", "8955e479418994bcd7d9a896c5097580");
    ("laplace2d.json", "7a3cebf9813581cea284a8891600672c", "29c0d5707a1008b15c2c49e39c164abb");
    ("shallow_water.json", "36a3ca967ba38c40db777f9af6e58c51", "79dcd982bae4b8571a583d9a9105548e");
    ("smoothing3d.json", "bb936ab1ae5cfceab5655d618dbb645c", "33c3984d093e6f4c7729392450ac4eb5");
  ]

let test_transforms_pinned () =
  let digest (t : Sdfg.t) = Digest.to_hex (Digest.string (Marshal.to_string t [ Marshal.No_sharing ])) in
  List.iter
    (fun (file, fission, fusion) ->
      let fissioned = Transform.map_fission (Sdfg.of_program (Test_sim_parity.example file)) in
      Alcotest.(check string) (file ^ " map fission") fission (digest fissioned);
      Alcotest.(check string) (file ^ " state fusion") fusion (digest (Transform.state_fusion fissioned)))
    transform_digests

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
    Alcotest.test_case "extract inverts lowering" `Quick test_extract_roundtrip;
    Alcotest.test_case "library node expansion (fig 12)" `Quick test_expansion;
    Alcotest.test_case "pipeline scope init phases" `Quick test_expansion_pipeline_phases;
    Alcotest.test_case "map fission introduces temporaries" `Quick test_map_fission;
    Alcotest.test_case "state fusion inverts fission" `Quick test_state_fusion_roundtrip;
    Alcotest.test_case "map fission and state fusion of every example pinned" `Quick
      test_transforms_pinned;
    Alcotest.test_case "nest dim lifts 2D to 3D" `Quick test_nest_dim;
    Alcotest.test_case "nest dim rejects 3D input" `Quick test_nest_dim_rejects_3d;
    Alcotest.test_case "validation catches dangling edges" `Quick test_validate_catches_corruption;
    Alcotest.test_case "container names are distinct under colliding names" `Quick
      test_container_names_distinct;
  ]
