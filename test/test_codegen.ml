open Sf_ir
module Opencl = Sf_codegen.Opencl
module Dot = Sf_codegen.Dot
module Partition = Sf_mapping.Partition
module E = Builder.E

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_contains source fragments =
  List.iter
    (fun f -> Alcotest.(check bool) ("contains " ^ f) true (contains source f))
    fragments

let generate_single p =
  match Fixtures.ok (Opencl.generate p) with
  | [ a ] -> a.Opencl.source
  | artifacts -> Alcotest.fail (Printf.sprintf "expected 1 artifact, got %d" (List.length artifacts))

let test_laplace_kernel_structure () =
  let src = generate_single (Fixtures.laplace2d ~shape:[ 8; 8 ] ()) in
  check_contains src
    [
      "#pragma OPENCL EXTENSION cl_intel_channels : enable";
      "__attribute__((autorun))";
      "__kernel void stencil_lap()";
      "float sr_a[25]";
      "#pragma unroll";
      "read_channel_intel(ch_a__lap)";
      "write_channel_intel(ch_lap__mem";
      "__kernel void read_a(";
      "__kernel void write_lap(";
    ];
  (* Boundary predication with the constant condition. *)
  check_contains src [ "? sr_a["; ": 0.0f" ]

let test_channel_depths_annotated () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  let src = generate_single p in
  (* The skip edge a -> c carries the 7-word delay buffer. *)
  check_contains src [ "channel float ch_a__c __attribute__((depth(14)))" ]

let test_copy_boundary_codegen () =
  let b = Builder.create ~name:"copybc" ~shape:[ 4; 8 ] () in
  Builder.input b "a";
  Builder.stencil b ~boundary:[ ("a", Boundary.Copy) ] "s" E.(acc "a" [ 0; -1 ] +% acc "a" [ 0; 1 ]);
  Builder.output b "s";
  let src = generate_single (Builder.finish b) in
  (* Copy falls back to the center tap, not a constant. *)
  check_contains src [ ": sr_a[1 + v])" ]

let test_lets_become_locals () =
  let p = Fixtures.kitchen_sink () in
  let src = generate_single p in
  check_contains src [ "const float t = " ]

let test_shared_nodes_become_temporaries () =
  (* Structural sharing (no lets in the source) is scheduled as __tN
     locals: the shared subexpression is computed once and referenced
     twice, in both backends. *)
  let b = Builder.create ~name:"shared" ~shape:[ 8; 8 ] () in
  Builder.input b "a";
  Builder.stencil b "s"
    Builder.E.(
      sqrt_ (acc "a" [ 0; 0 ] +% acc "a" [ 0; 1 ])
      *% sqrt_ (acc "a" [ 0; 0 ] +% acc "a" [ 0; 1 ]));
  Builder.output b "s";
  let p = Builder.finish b in
  let src = generate_single p in
  check_contains src [ "const float __t0 = "; "__t0 * __t0" ];
  check_contains
    (Fixtures.ok (Sf_codegen.Vitis.generate p))
    [ "const float __t0 = "; "__t0 * __t0" ]

let test_lower_dim_prefetch () =
  let p = Fixtures.kitchen_sink () in
  let src = generate_single p in
  check_contains src [ "float pref_crlat[6]"; "float pref_alpha[1]" ]

let test_vectorized_codegen () =
  let p = Sf_analysis.Vectorize.apply (Fixtures.laplace2d ~shape:[ 8; 8 ] ()) 4 in
  let src = generate_single p in
  check_contains src [ "for (int v = 0; v < 4; ++v)"; "float sr_a[32]" ]

let test_multi_device_smi () =
  let p = Fixtures.chain ~shape:[ 6; 10 ] ~n:4 () in
  let pt =
    {
      Partition.num_devices = 2;
      device_of = [ ("f1", 0); ("f2", 0); ("f3", 1); ("f4", 1) ];
      replicated_inputs = [ ("f0", [ 0 ]) ];
      cross_edges = [ (("f2", "f3"), (0, 1)) ];
      per_device_usage = [];
    }
  in
  match Fixtures.ok (Opencl.generate ~partition:pt p) with
  | [ dev0; dev1 ] ->
      check_contains dev0.Opencl.source [ "SMI_Push(&smi_f2__f3"; "__kernel void stencil_f2" ];
      check_contains dev1.Opencl.source [ "SMI_Pop(&smi_f2__f3"; "__kernel void stencil_f3" ];
      Alcotest.(check bool) "reader only on device 0" true
        (contains dev0.Opencl.source "__kernel void read_f0"
        && not (contains dev1.Opencl.source "__kernel void read_f0"));
      Alcotest.(check bool) "writer only on device 1" true
        (contains dev1.Opencl.source "__kernel void write_f4"
        && not (contains dev0.Opencl.source "__kernel void write_f4"))
  | artifacts -> Alcotest.fail (Printf.sprintf "expected 2 artifacts, got %d" (List.length artifacts))

let test_host_code () =
  let p = Fixtures.fork () in
  let host = Fixtures.ok (Opencl.host_source p) in
  check_contains host
    [ "clCreateBuffer"; "clEnqueueWriteBuffer"; "kernel_write_left"; "kernel_write_join" ]

let test_expression_to_c () =
  let access ~field ~offsets =
    Printf.sprintf "%s_%s" field (Sf_support.Util.string_concat_map "_" string_of_int offsets)
  in
  let e =
    Fixtures.ok1
      (Sf_frontend.Parser.parse_expr "a[0,1] * (b[0,0] + 2.0) < 1.0 ? sqrt(a[0,1]) : -b[0,0]")
  in
  Alcotest.(check string) "rendered"
    "((a_0_1 * (b_0_0 + 2.0f)) < 1.0f) ? sqrtf(a_0_1) : (-b_0_0)"
    (Opencl.expression_to_c ~access e)

let test_vitis_backend () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  let src = Fixtures.ok (Sf_codegen.Vitis.generate p) in
  check_contains src
    [
      "#include <hls_stream.h>";
      "#pragma HLS DATAFLOW";
      "#pragma HLS PIPELINE II=1";
      "void pe_b(";
      "hls::stream<float> s_a__c;";
      "#pragma HLS STREAM variable=s_a__c depth=14";
      "extern \"C\" void stencilflow_diamond(";
      "read_x(mem_x, s_x__a);";
      "write_c(s_c__mem, mem_c);";
    ]

let test_vitis_kitchen_sink () =
  (* Lower-dimensional inputs, copy boundaries and lets all lower. *)
  let src = Fixtures.ok (Sf_codegen.Vitis.generate (Fixtures.kitchen_sink ())) in
  check_contains src [ "float pref_crlat[6]"; "const float t ="; "#pragma HLS ARRAY_PARTITION" ]

(* The Vitis source of every shipped program, fused and optimized, pinned
   byte for byte by digest: the one-shot CLI cannot select this backend,
   so test/cli/stencilflow.t pins only the OpenCL output. *)
let vitis_digests =
  [
    ("acoustic_wave.json", "7ab678a37c9fd84045e6248e1de26482");
    ("diamond.json", "13b848ccebcbe2f43e966396888f90be");
    ("hdiff_2dev.json", "b79cb38285400dd28390b9a108abb278");
    ("horizontal_diffusion_small.json", "ef6eaf7941af3df1a25900a9900b6e30");
    ("jacobi2d_8stage.json", "0e982f73a9b85fed82913305d24e1919");
    ("laplace2d.json", "29ada15b64cd9d1541c20e089a6e5b02");
    ("shallow_water.json", "4e6ebbccc94a736b4a51e6990e73b97b");
    ("smoothing3d.json", "0c2203b012e1e024ae37f15b75a3f4a0");
  ]

let test_vitis_pinned () =
  List.iter
    (fun (file, digest) ->
      let p = Fixtures.ok (Sf_frontend.Program_json.of_file ("../examples/programs/" ^ file)) in
      let p = Sf_sdfg.Opt.optimize (fst (Sf_sdfg.Fusion.fuse_all p)) in
      let src = Fixtures.ok (Sf_codegen.Vitis.generate p) in
      Alcotest.(check string) file digest (Digest.to_hex (Digest.string src)))
    vitis_digests

let test_dot_export () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  let dot = Dot.of_program p in
  check_contains dot
    [ "digraph"; "\"x\" [shape=box"; "\"c\" [shape=ellipse, peripheries=2]"; "\"a\" -> \"c\" [label=\"14\"]" ]

let test_sdfg_dot_export () =
  let p = Fixtures.laplace2d ~shape:[ 8; 8 ] () in
  let expanded = Sf_sdfg.Sdfg.expand_library_nodes (Sf_sdfg.Sdfg.of_program p) in
  let dot = Dot.of_sdfg expanded in
  check_contains dot
    [ "digraph \"laplace2d\""; "pipeline_lap (init"; "shape=octagon"; "compute";
      "write_if_not_initializing"; "shift_a (unroll" ]

let suite =
  [
    Alcotest.test_case "laplace kernel structure (fig 12)" `Quick test_laplace_kernel_structure;
    Alcotest.test_case "channel depths annotated" `Quick test_channel_depths_annotated;
    Alcotest.test_case "copy boundary predication" `Quick test_copy_boundary_codegen;
    Alcotest.test_case "lets lower to locals" `Quick test_lets_become_locals;
    Alcotest.test_case "shared nodes lower to __tN temporaries" `Quick
      test_shared_nodes_become_temporaries;
    Alcotest.test_case "lower-dim inputs prefetch" `Quick test_lower_dim_prefetch;
    Alcotest.test_case "vectorized kernels" `Quick test_vectorized_codegen;
    Alcotest.test_case "multi-device SMI emission (sec 6B)" `Quick test_multi_device_smi;
    Alcotest.test_case "host code" `Quick test_host_code;
    Alcotest.test_case "expression rendering" `Quick test_expression_to_c;
    Alcotest.test_case "vitis backend structure" `Quick test_vitis_backend;
    Alcotest.test_case "vitis backend kitchen sink" `Quick test_vitis_kitchen_sink;
    Alcotest.test_case "vitis output of every example pinned" `Quick test_vitis_pinned;
    Alcotest.test_case "graphviz export" `Quick test_dot_export;
    Alcotest.test_case "sdfg graphviz export (fig 12)" `Quick test_sdfg_dot_export;
  ]
