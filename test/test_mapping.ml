open Sf_ir
module Partition = Sf_mapping.Partition
module Smi = Sf_smi.Smi
module Device = Sf_models.Device
module Iterative = Sf_kernels.Iterative
module Engine = Sf_sim.Engine

let dev = Device.stratix10

let test_single_device_fits () =
  let p = Fixtures.kitchen_sink () in
  match Partition.greedy ~device:dev (Program.check_exn p) with
  | Error m -> Alcotest.fail (Sf_support.Diag.to_string m)
  | Ok pt ->
      Alcotest.(check int) "one device" 1 pt.Partition.num_devices;
      Alcotest.(check int) "no cross edges" 0 (List.length pt.Partition.cross_edges)

let test_long_chain_splits () =
  (* A chain too big for one device spreads over several, splitting at
     consecutive boundaries (Sec. VIII-C). *)
  let p = Iterative.chain ~shape:[ 256; 64; 64 ] Iterative.Jacobi3d ~length:300 in
  match Partition.greedy ~device:dev (Program.check_exn p) with
  | Error m -> Alcotest.fail (Sf_support.Diag.to_string m)
  | Ok pt ->
      Alcotest.(check bool)
        (Printf.sprintf "%d devices > 1" pt.Partition.num_devices)
        true
        (pt.Partition.num_devices > 1);
      (* A linear chain crosses each device boundary exactly once. *)
      Alcotest.(check int) "one cross edge per boundary"
        (pt.Partition.num_devices - 1)
        (List.length pt.Partition.cross_edges);
      (* Topological packing keeps devices monotone along the chain. *)
      List.iter
        (fun ((_, _), (d1, d2)) ->
          Alcotest.(check int) "consecutive devices" 1 (d2 - d1))
        pt.Partition.cross_edges;
      Alcotest.(check bool) "network feasible at W=1" true
        (Partition.network_feasible p pt ~device:dev)

let test_input_replication () =
  (* Fig. 5: an input read on two devices is replicated to both. A
     partition derives its replication and cross edges from the
     placement. *)
  let check_derived what pt ~replicated ~cross =
    Alcotest.(check (list (pair string (list int)))) (what ^ ": replication") replicated
      pt.Partition.replicated_inputs;
    Alcotest.(check (list (pair (pair string string) (pair int int))))
      (what ^ ": cross edges") cross pt.Partition.cross_edges
  in
  let p = Fixtures.chain ~shape:[ 6; 10 ] ~n:2 () in
  (* Force the two stages apart with a manual partition. *)
  check_derived "chain"
    (Fixtures.partition ~devices:2 p [ ("f1", 0); ("f2", 1) ])
    ~replicated:[ ("f0", [ 0 ]) ]
    ~cross:[ (("f1", "f2"), (0, 1)) ];
  (* A program where both devices read the same input. *)
  let b = Builder.create ~name:"shared" ~shape:[ 4; 8 ] () in
  Builder.input b "a";
  Builder.stencil b "s1" Builder.E.(acc "a" [ 0; 0 ] +% c 1.);
  Builder.stencil b "s2" Builder.E.(acc "a" [ 0; 0 ] +% acc "s1" [ 0; 0 ]);
  Builder.output b "s2";
  let shared = Builder.finish b in
  check_derived "shared"
    (Fixtures.partition ~devices:2 shared [ ("s1", 0); ("s2", 1) ])
    ~replicated:[ ("a", [ 0; 1 ]) ]
    ~cross:[ (("s1", "s2"), (0, 1)) ];
  (* A placement that leaves a stencil out, or names a device past the
     last, builds no partition. *)
  let rejects what device_of =
    match
      Partition.make (Program.check_exn shared) ~device_of
        ~per_device_usage:[ Sf_models.Resource.zero; Sf_models.Resource.zero ]
    with
    | Error d ->
        Alcotest.(check string) what Sf_support.Diag.Code.partition_invariant d.Sf_support.Diag.code
    | Ok _ -> Alcotest.failf "%s: must be rejected" what
  in
  rejects "unplaced stencil" [ ("s1", 0) ];
  rejects "device out of range" [ ("s1", 0); ("s2", 2) ];
  rejects "negative device" [ ("s1", -1); ("s2", 0) ]

let test_partitioned_simulation_validates () =
  (* End to end: greedy partition of a moderately long chain, simulated
     across devices with networking, still matches the reference. *)
  let p = Fixtures.chain ~shape:[ 6; 12 ] ~n:6 () in
  (* Force a split by pretending each stage is huge: manual placement. *)
  let placement name =
    match name with
    | "f1" | "f2" -> 0
    | "f3" | "f4" -> 1
    | _ -> 2
  in
  let config =
    Engine.Config.make ~latency:Sf_analysis.Latency.cheap
      ~network:(Engine.Config.network ~net_latency_cycles:8 ())
      ()
  in
  match Engine.run_and_validate ~config ~placement p with
  | Ok stats -> Alcotest.(check bool) "network used" true (stats.Engine.network_bytes > 0)
  | Error m -> Alcotest.fail (Sf_support.Diag.to_string m)

let test_hop_demand () =
  let p = Sf_analysis.Vectorize.apply (Fixtures.chain ~shape:[ 6; 12 ] ~n:2 ()) 4 in
  let pt = Fixtures.partition ~devices:2 p [ ("f1", 0); ("f2", 1) ] in
  (* W=4 floats crossing: 16 B/cycle. *)
  Alcotest.(check (float 1e-9)) "demand" 16. (Partition.hop_demand_bytes_per_cycle p pt ~hop:0);
  Alcotest.(check bool) "feasible on two 40 Gbit links" true
    (Partition.network_feasible p pt ~device:dev)

let test_smi_split_reassemble () =
  let words = List.init 17 Fun.id in
  let sub = Smi.split_words words ~ways:3 in
  Alcotest.(check int) "three substreams" 3 (List.length sub);
  Alcotest.(check (list int)) "reassembles in order" words (Smi.reassemble sub)

let prop_smi_roundtrip =
  QCheck.Test.make ~count:200 ~name:"smi split/reassemble roundtrip"
    QCheck.(pair (list int) (int_range 1 6))
    (fun (words, ways) -> Smi.reassemble (Smi.split_words words ~ways) = words)

let test_smi_channels () =
  let topo = Smi.chain ~devices:4 ~links_per_hop:2 in
  Alcotest.(check int) "hops" 2 (Smi.hops topo ~src:1 ~dst:3);
  let ch =
    { Smi.src_rank = 0; dst_rank = 1; port = 0; element_bytes = 4; vector_width = 4; depth = 9 }
  in
  (match Smi.validate_channel topo ch with Ok () -> () | Error m -> Alcotest.fail m);
  (match Smi.validate_channel topo { ch with Smi.dst_rank = 0 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "same-rank channel must be rejected");
  let subs = Smi.split topo ch in
  Alcotest.(check int) "split into links" 2 (List.length subs);
  Alcotest.(check bool) "ports distinct" true
    (List.length (List.sort_uniq compare (List.map (fun c -> c.Smi.port) subs)) = 2)

let test_smi_max_width_matches_paper () =
  (* Sec. VIII-C: with two 40 Gbit/s links at ~300 MHz, one f32 stream can
     vectorize to W=4 but not W=8 across devices — the network bound that
     capped the distributed experiments. *)
  let topo = Smi.chain ~devices:8 ~links_per_hop:2 in
  let w = Smi.max_vector_width topo dev ~element_bytes:4 ~streams_per_hop:1 in
  Alcotest.(check int) "W=4 sustainable, W=8 not" 4 w

let suite =
  [
    Alcotest.test_case "small program fits one device" `Quick test_single_device_fits;
    Alcotest.test_case "long chains split across devices" `Quick test_long_chain_splits;
    Alcotest.test_case "input replication (fig 5)" `Quick test_input_replication;
    Alcotest.test_case "partitioned simulation validates" `Quick
      test_partitioned_simulation_validates;
    Alcotest.test_case "hop bandwidth demand" `Quick test_hop_demand;
    Alcotest.test_case "smi stream splitting" `Quick test_smi_split_reassemble;
    Alcotest.test_case "smi channel validation and split" `Quick test_smi_channels;
    Alcotest.test_case "smi caps distributed W at 4 (sec 8C)" `Quick
      test_smi_max_width_matches_paper;
    QCheck_alcotest.to_alcotest prop_smi_roundtrip;
  ]
