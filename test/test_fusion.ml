open Sf_ir
module Fusion = Sf_sdfg.Fusion
module Interp = Sf_reference.Interp
module Tensor = Sf_reference.Tensor
module Delay_buffer = Sf_analysis.Delay_buffer
module E = Builder.E

(* Compare two programs on cells at least [radius] away from every face
   of the domain (fusion changes boundary predication; interiors agree
   exactly — Sec. V-B). *)
let interior_equal ~radius p q =
  let inputs = Interp.random_inputs p in
  let rp = Interp.run p ~inputs and rq = Interp.run q ~inputs in
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
                if
                  List.for_all2
                    (fun i e -> i >= radius && i < e - radius)
                    idx shape
                then begin
                  let a = Tensor.get r.Interp.tensor idx
                  and b = Tensor.get r'.Interp.tensor idx in
                  if Float.abs (a -. b) > 1e-9 *. Float.max 1. (Float.abs a) then ok := false
                end
            | e :: rest ->
                for i = 0 to e - 1 do
                  scan (i :: prefix) rest
                done
          in
          scan [] shape;
          !ok)
    rp

let test_preconditions () =
  let diamond = Fixtures.diamond () in
  (* a feeds both b and c: container degree > 2. *)
  (match Fusion.can_fuse diamond ~producer:"a" ~consumer:"b" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "multi-consumer producer must not fuse");
  (* b -> c is legal. *)
  (match Fusion.can_fuse diamond ~producer:"b" ~consumer:"c" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* Output stencils must not fuse away. *)
  let fork = Fixtures.fork () in
  (match Fusion.can_fuse fork ~producer:"left" ~consumer:"join" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "memory-written producer must not fuse");
  (* Differing boundary conditions block fusion. *)
  let b = Builder.create ~name:"bc" ~shape:[ 4; 8 ] () in
  Builder.input b "x";
  Builder.stencil b ~boundary:[ ("x", Boundary.Copy) ] "s" E.(acc "x" [ 0; 1 ] +% acc "x" [ 0; -1 ]);
  Builder.stencil b
    ~boundary:[ ("s", Boundary.Constant 0.); ("x", Boundary.Constant 0.) ]
    "t"
    E.(acc "s" [ 0; 1 ] +% acc "x" [ 0; 0 ]);
  Builder.output b "t";
  let p = Builder.finish b in
  match Fusion.can_fuse p ~producer:"s" ~consumer:"t" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "differing boundary conditions must block fusion"

let test_fuse_chain_pair () =
  let p = Fixtures.chain ~shape:[ 8; 12 ] ~n:2 () in
  let fused = Fusion.fuse_pair p ~producer:"f1" ~consumer:"f2" in
  Alcotest.(check int) "one stencil left" 1 (List.length fused.Program.stencils);
  Alcotest.(check (list string)) "output name kept" [ "f2" ] fused.Program.outputs;
  let radius = Fusion.equivalence_radius ~original:p ~fused in
  Alcotest.(check int) "combined radius" 2 radius;
  Alcotest.(check bool) "interior semantics preserved" true (interior_equal ~radius p fused)

let test_fuse_all_chain () =
  let p = Fixtures.chain ~shape:[ 10; 16 ] ~n:4 () in
  let fused, report = Fusion.fuse_all p in
  Alcotest.(check int) "single stencil" 1 (List.length fused.Program.stencils);
  Alcotest.(check int) "three fusions" 3 (List.length report.Fusion.fused_pairs);
  Alcotest.(check int) "before" 4 report.Fusion.stencils_before;
  Alcotest.(check int) "after" 1 report.Fusion.stencils_after;
  let radius = Fusion.equivalence_radius ~original:p ~fused in
  Alcotest.(check bool) "interior semantics preserved" true (interior_equal ~radius p fused)

let test_fusion_reduces_latency () =
  (* Fig. 11b: fusion never increases the modelled critical path (the
     combined initialization phase equals the summed spans), and the
     simulated runtime drops because per-hop pipeline overheads disappear
     ("slightly reduces runtime by pruning initialization latencies",
     Sec. V-B). *)
  let p = Fixtures.chain ~shape:[ 10; 16 ] ~n:4 () in
  let fused, _ = Fusion.fuse_all p in
  let l q = (Delay_buffer.analyze q).Delay_buffer.latency_cycles in
  Alcotest.(check bool)
    (Printf.sprintf "L fused (%d) <= L unfused (%d)" (l fused) (l p))
    true
    (l fused <= l p);
  let module Engine = Sf_sim.Engine in
  let cheap = Engine.Config.make ~latency:Sf_analysis.Latency.cheap () in
  let cycles q =
    match Engine.run_exn ~config:cheap q with
    | Engine.Completed stats -> stats.Engine.cycles
    | Engine.Deadlocked _ -> Alcotest.fail "deadlock"
  in
  let cf = cycles fused and cu = cycles p in
  Alcotest.(check bool)
    (Printf.sprintf "simulated fused (%d) < unfused (%d)" cf cu)
    true (cf < cu)

let test_fusion_diamond_partial () =
  (* a has two consumers, so a -> b cannot fuse first; fusing b into c
     leaves a with a single consumer, after which a fuses too. *)
  let p = Fixtures.diamond ~shape:[ 6; 12 ] ~span:2 () in
  let fused, report = Fusion.fuse_all p in
  Alcotest.(check int) "collapses to one stencil" 1 (List.length fused.Program.stencils);
  Alcotest.(check (list (pair string string))) "fusion order" [ ("b", "c"); ("a", "c") ]
    report.Fusion.fused_pairs;
  let radius = Fusion.equivalence_radius ~original:p ~fused in
  Alcotest.(check bool) "interior semantics" true (interior_equal ~radius p fused)

let test_fusion_with_lower_dim_shift () =
  (* kitchen_sink: lap -> flux fuses; lap reads the 1D field crlat, whose
     offsets must shift on the axis it spans. *)
  let p = Fixtures.kitchen_sink ~shape:[ 4; 6; 8 ] () in
  let fused, report = Fusion.fuse_all p in
  Alcotest.(check bool) "at least one fusion happened" true (report.Fusion.fused_pairs <> []);
  let radius = Fusion.equivalence_radius ~original:p ~fused in
  Alcotest.(check bool) "interior semantics" true (interior_equal ~radius p fused)

let test_scalar_absorbing_fusion_radius () =
  (* Regression (found by random testing): fusing a producer that reads
     only a scalar absorbs the consumer's offsets entirely, so the fused
     program's own offsets have radius 0 while the unfused program
     applied the producer's boundary condition up to the consumer's
     offset. The equivalence radius must cover both. *)
  let b = Builder.create ~name:"absorb" ~shape:[ 6; 8 ] () in
  Builder.input b "x";
  Builder.input b ~axes:[] "alpha";
  Builder.stencil b "s0" E.(sc "alpha" *% c 2.);
  Builder.stencil b
    ~boundary:[ ("s0", Boundary.Constant (-1.5)) ]
    "s1"
    E.(acc "s0" [ 0; 2 ] +% acc "x" [ 0; 0 ]);
  Builder.output b "s1";
  let p = Builder.finish b in
  let fused, report = Fusion.fuse_all p in
  Alcotest.(check int) "fused" 1 (List.length fused.Program.stencils);
  Alcotest.(check int) "one pair" 1 (List.length report.Fusion.fused_pairs);
  Alcotest.(check int) "fused program's own radius is 0" 0 (Fusion.interior_radius fused);
  let radius = Fusion.equivalence_radius ~original:p ~fused in
  Alcotest.(check int) "equivalence radius covers the absorbed offset" 2 radius;
  Alcotest.(check bool) "interior equal at the sound radius" true
    (interior_equal ~radius p fused);
  (* At radius 0 the programs genuinely differ near the boundary (that is
     the point of the regression). *)
  Alcotest.(check bool) "boundary cells differ" false (interior_equal ~radius:0 p fused)

let test_max_body_size_limits () =
  let p = Fixtures.chain ~shape:[ 10; 16 ] ~n:4 () in
  let _, unbounded = Fusion.fuse_all p in
  let _, bounded = Fusion.fuse_all ~max_body_size:10 p in
  Alcotest.(check bool) "size bound prevents some fusion" true
    (List.length bounded.Fusion.fused_pairs < List.length unbounded.Fusion.fused_pairs)

let test_work_size_accepts_shared_fusion () =
  (* A producer whose body shares work through a let is textually large
     once inlined, but small as a DAG. The historical heuristic sized the
     candidate as size(inline u) * accesses + size(inline v) = 9*2+3 = 21
     and rejected it under a bound of 15; the work-size heuristic counts
     the 11 distinct nodes of the actual fused body and accepts. *)
  let program () =
    let b = Builder.create ~name:"shared_fusion" ~shape:[ 8; 12 ] () in
    Builder.input b "a";
    Builder.stencil b
      ~boundary:[ ("a", Boundary.Constant 0.) ]
      ~lets:[ ("t", E.(sqrt_ (acc "a" [ 0; 0 ] +% acc "a" [ 0; 1 ]))) ]
      "sh"
      E.(var "t" *% var "t");
    Builder.stencil b
      ~boundary:[ ("sh", Boundary.Constant 0.) ]
      "out"
      E.(acc "sh" [ 0; -1 ] +% acc "sh" [ 0; 1 ]);
    Builder.output b "out";
    Builder.finish b
  in
  let p = program () in
  let u = Option.get (Program.find_stencil p "sh") in
  let v = Option.get (Program.find_stencil p "out") in
  let tree_estimate =
    Dag.tree_size (Dag.of_body u.Stencil.body)
    * List.length (Stencil.accesses_of_field v "sh")
    + Dag.tree_size (Dag.of_body v.Stencil.body)
  in
  Alcotest.(check bool) "old inlined-tree estimate exceeds the bound" true (tree_estimate > 15);
  let fused, report = Fusion.fuse_all ~max_body_size:15 p in
  Alcotest.(check int) "work-size heuristic accepts the fusion" 1
    (List.length report.Fusion.fused_pairs);
  Alcotest.(check int) "single fused stencil" 1 (List.length fused.Program.stencils);
  let body = (List.hd fused.Program.stencils).Stencil.body in
  Alcotest.(check bool) "fused work size within bound" true
    (Dag.work_size (Dag.of_body body) <= 15);
  let radius = Fusion.equivalence_radius ~original:p ~fused in
  Alcotest.(check bool) "interior semantics" true (interior_equal ~radius p fused)

let test_hdiff_fusion_shape () =
  (* Fig. 17c: aggressive fusion collapses the 18-node hdiff DAG. *)
  let p = Sf_kernels.Hdiff.program ~shape:[ 6; 12; 12 ] () in
  let fused, report = Fusion.fuse_all p in
  Alcotest.(check int) "18 stencils before" 18 report.Fusion.stencils_before;
  Alcotest.(check int) "4 outputs remain" 4 (List.length fused.Program.stencils);
  let radius = Fusion.equivalence_radius ~original:p ~fused in
  Alcotest.(check bool) "interior semantics" true (interior_equal ~radius p fused)

let prop_fusion_preserves_interior =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 5 in
      let* kind = oneofl Sf_kernels.Iterative.[ Jacobi2d; Diffusion2d; Laplace2d ] in
      return (Sf_kernels.Iterative.chain ~shape:[ 14; 14 ] kind ~length:n))
  in
  QCheck.Test.make ~count:25 ~name:"fusion preserves interior semantics on random chains"
    (QCheck.make ~print:(fun p -> p.Program.name) gen)
    (fun p ->
      let fused, _ = Fusion.fuse_all p in
      let radius = Fusion.equivalence_radius ~original:p ~fused in
      (* Keep some interior cells. *)
      QCheck.assume (radius < 7);
      interior_equal ~radius p fused)

(* The definition [fuse_all] keeps: fuse the first legal pair in
   topological order whose fused consumer's body stays within the bound,
   then start over on the fused program. *)
let fuse_all_by_restart ?(max_body_size = max_int) p =
  let rec go p fused_pairs =
    let candidate (s : Stencil.t) =
      let producer = s.Stencil.name in
      match Program.consumers p producer with
      | [ consumer ] when Fusion.can_fuse p ~producer ~consumer = Ok () ->
          let p' = Fusion.fuse_pair p ~producer ~consumer in
          let body = (Option.get (Program.find_stencil p' consumer)).Stencil.body in
          if Dag.work_size (Dag.of_body body) <= max_body_size then Some (p', (producer, consumer))
          else None
      | _ -> None
    in
    match List.find_map candidate (Program.topological_stencils p) with
    | None -> (p, List.rev fused_pairs)
    | Some (p', pair) -> go p' (pair :: fused_pairs)
  in
  go p []

let matches_restart ?max_body_size p =
  let fused, report = Fusion.fuse_all ?max_body_size p in
  let fused', pairs' = fuse_all_by_restart ?max_body_size p in
  Stdlib.compare fused fused' = 0
  && report.Fusion.fused_pairs = pairs'
  && report.Fusion.stencils_after = List.length fused'.Program.stencils
  && Sf_support.Fingerprint.equal (Program.fingerprint fused) (Program.fingerprint fused')

let test_fuse_all_matches_restart_on_examples () =
  let examples = Test_examples.example_files () in
  Alcotest.(check int) "the shipped examples" 8 (List.length examples);
  List.iter
    (fun path ->
      let f = Filename.basename path in
      let p = Fixtures.ok (Sf_frontend.Program_json.of_file path) in
      Alcotest.(check bool) f true (matches_restart p);
      Alcotest.(check bool) (f ^ " bounded") true (matches_restart ~max_body_size:40 p))
    examples;
  Alcotest.(check bool) "hdiff" true (matches_restart (Sf_kernels.Hdiff.program ()))

let prop_fuse_all_matches_restart =
  let gen =
    QCheck.Gen.(
      pair
        (oneof [ Program_gen.program_gen; Program_gen.adversarial_program_gen ])
        (opt (int_range 1 80)))
  in
  let print (p, bound) =
    Format.asprintf "%a@.max_body_size %s" Program.pp p
      (Option.fold ~none:"unbounded" ~some:string_of_int bound)
  in
  QCheck.Test.make ~count:300 ~name:"fuse_all matches its old definition"
    (QCheck.make ~print gen) (fun (p, max_body_size) -> matches_restart ?max_body_size p)

let suite =
  [
    Alcotest.test_case "fusion preconditions" `Quick test_preconditions;
    Alcotest.test_case "fuse one pair" `Quick test_fuse_chain_pair;
    Alcotest.test_case "aggressive fusion of a chain" `Quick test_fuse_all_chain;
    Alcotest.test_case "fusion reduces latency (fig 11)" `Quick test_fusion_reduces_latency;
    Alcotest.test_case "diamond fuses only the legal edge" `Quick test_fusion_diamond_partial;
    Alcotest.test_case "lower-dimensional offsets shift on their axes" `Quick
      test_fusion_with_lower_dim_shift;
    Alcotest.test_case "scalar-absorbing fusion radius (regression)" `Quick
      test_scalar_absorbing_fusion_radius;
    Alcotest.test_case "body size bound" `Quick test_max_body_size_limits;
    Alcotest.test_case "work-size heuristic accepts shared fusion" `Quick
      test_work_size_accepts_shared_fusion;
    Alcotest.test_case "hdiff collapses to its outputs (fig 17)" `Quick test_hdiff_fusion_shape;
    QCheck_alcotest.to_alcotest prop_fusion_preserves_interior;
    Alcotest.test_case "fuse_all matches its old definition on the examples" `Quick
      test_fuse_all_matches_restart_on_examples;
    QCheck_alcotest.to_alcotest prop_fuse_all_matches_restart;
  ]
