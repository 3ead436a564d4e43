open Sf_ir
module Opencl = Sf_codegen.Opencl
module Dot = Sf_codegen.Dot
module Partition = Sf_mapping.Partition
module E = Builder.E

let find_from haystack ~from needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = if i + n > h then None else if String.sub haystack i n = needle then Some i else go (i + 1) in
  go from

let contains haystack needle = Option.is_some (find_from haystack ~from:0 needle)

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
  let pt = Fixtures.partition ~devices:2 p [ ("f1", 0); ("f2", 0); ("f3", 1); ("f4", 1) ] in
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
      let p = Fixtures.ok (Sf_frontend.Program_json.of_file (Fixtures.example_path file)) in
      let p = Sf_sdfg.Opt.optimize (fst (Sf_sdfg.Fusion.fuse_all p)) in
      let src = Fixtures.ok (Sf_codegen.Vitis.generate p) in
      Alcotest.(check string) file digest (Digest.to_hex (Digest.string src)))
    vitis_digests

(* The OpenCL kernels and host code of two programs split over devices by
   [Partition.contiguous], plain and fused, at W=1 and W=4, pinned byte
   for byte by digest: the CLI's codegen places every program on one
   device, so test/cli/stencilflow.t pins no SMI emission.
   (file, devices, fused, W, kernels digest, host digest). *)
let multi_device_digests =
  [
    ("hdiff_2dev.json", 2, false, 1, "ebd2eb08d38bc0ed2732e655dcf1c645", "ab64e9620b8cb537aaea33bb7d2339d8");
    ("hdiff_2dev.json", 2, false, 4, "8dde5f130bfec449f0a60eacfce2cf62", "ab64e9620b8cb537aaea33bb7d2339d8");
    ("hdiff_2dev.json", 2, true, 1, "fa642eff8c301b96df12488fc6ee321b", "46d374f8e981e3f56573e2d4b90520ff");
    ("hdiff_2dev.json", 2, true, 4, "859884b8540f861adc587ef7a4d3c00d", "46d374f8e981e3f56573e2d4b90520ff");
    ("jacobi2d_8stage.json", 3, false, 1, "1b5a43b95fef16752e8e744063c96810", "450ab8cb520f08c3ebbee5c1519bd81a");
    ("jacobi2d_8stage.json", 3, false, 4, "218c5073d84e51e81fa84b29ce37cc45", "450ab8cb520f08c3ebbee5c1519bd81a");
    ("jacobi2d_8stage.json", 3, true, 1, "391df4161f73f1f8a3e94793ded51b12", "bec4ff077f4d958dc99eede583f8eaf1");
    ("jacobi2d_8stage.json", 3, true, 4, "a9b34d780a87ea2e941ccfbafda0caa0", "bec4ff077f4d958dc99eede583f8eaf1");
  ]

let test_multi_device_pinned () =
  let hex s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (file, devices, fused, w, kernels, host) ->
      let p = Fixtures.ok (Sf_frontend.Program_json.of_file (Fixtures.example_path file)) in
      let p = Sf_analysis.Vectorize.apply p w in
      let p = if fused then fst (Sf_sdfg.Fusion.fuse_all p) else p in
      let partition = Fixtures.ok1 (Partition.contiguous ~devices p) in
      let what = Printf.sprintf "%s on %d devices, fused %b, W=%d" file devices fused w in
      let artifacts = Fixtures.ok (Opencl.generate ~partition p) in
      Alcotest.(check string) (what ^ ": kernels") kernels
        (hex (String.concat "" (List.map (fun a -> a.Opencl.filename ^ a.Opencl.source) artifacts)));
      Alcotest.(check string) (what ^ ": host") host
        (hex (Fixtures.ok (Opencl.host_source ~partition p))))
    multi_device_digests

let test_dot_export () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  let dot = Dot.of_program p in
  check_contains dot
    [ "digraph"; "\"x\" [shape=box"; "\"c\" [shape=ellipse, peripheries=2]"; "\"a\" -> \"c\" [label=\"14\"]" ]

(* One program whose names collide in emitted identifiers unless every
   name is spelled injectively: the output [o] is read by a stencil
   named [mem] (its edge and its memory channel) and by [mem_o] (the
   Vitis port [out_<consumer>] and [out_mem_<o>]); the edges [a -> b__c]
   and [a__b -> c] (the channel [ch_a__b__c]); a stencil named [s.tx];
   and an output [x_dev0] beside the input [x] (host buffers). The
   partition puts each stencil named [a...], [o] and [mem...] on device
   0, so both joined edges cross devices as SMI channels. *)
let colliding_names () =
  let b = Builder.create ~name:"colliding" ~shape:[ 4; 8 ] () in
  Builder.input b "x";
  Builder.stencil b "o" E.(acc "x" [ 0; 0 ] +% acc "x" [ 0; 1 ]);
  Builder.stencil b "mem" E.(acc "o" [ 0; 0 ] *% c 2.);
  Builder.stencil b "mem_o" E.(acc "o" [ 0; 0 ] -% acc "x" [ 0; 0 ]);
  Builder.stencil b "a" E.(acc "x" [ 0; 0 ] -% acc "x" [ -1; 0 ]);
  Builder.stencil b "a__b" E.(acc "x" [ 0; 0 ] *% c 0.5);
  Builder.stencil b "b__c" E.(acc "a" [ 0; 0 ] *% c 3.);
  Builder.stencil b "c" E.(acc "a__b" [ 0; 0 ] +% acc "mem" [ 0; 0 ]);
  Builder.stencil b "s.tx" E.(acc "c" [ 0; -1 ]);
  Builder.stencil b "x_dev0" E.(acc "s.tx" [ 0; 0 ] +% acc "b__c" [ 0; 0 ]);
  List.iter (Builder.output b) [ "o"; "mem_o"; "x_dev0" ];
  Builder.finish b

let colliding_partition p =
  let on_device_0 = [ "o"; "mem"; "mem_o"; "a"; "a__b" ] in
  Fixtures.partition ~devices:2 p
    (List.map
       (fun s -> (s, if List.mem s on_device_0 then 0 else 1))
       (on_device_0 @ [ "b__c"; "c"; "s.tx"; "x_dev0" ]))

(* What a generated source declares, by scope: at file scope (lines at
   column 0) its channels, SMI channels, prefetch arrays and functions;
   in a function, from its header on, its parameters, streams, shift
   registers and host buffers. *)
let declarations src =
  let token s =
    let stop = ref 0 in
    while !stop < String.length s && not (String.contains " [;(),=" s.[!stop]) do incr stop done;
    String.sub s 0 !stop
  in
  let after prefix s =
    if String.starts_with ~prefix s then
      Some (token (String.sub s (String.length prefix) (String.length s - String.length prefix)))
    else None
  in
  let scope = ref "" and acc = ref [] in
  let declare sc name = acc := (sc, name) :: !acc in
  List.iter
    (fun line ->
      let trimmed = String.trim line in
      match (find_from line ~from:0 "void ", String.index_opt line '(') with
      | Some v, Some open_ when v < open_ && String.ends_with ~suffix:"{" trimmed ->
          let name = token (String.sub line (v + 5) (String.length line - v - 5)) in
          declare "" name;
          scope := name;
          let close = String.rindex line ')' in
          String.split_on_char ',' (String.sub line (open_ + 1) (close - open_ - 1))
          |> List.iter (fun param ->
                 match String.split_on_char ' ' (String.trim param) with
                 | [ "" ] -> ()
                 | words -> declare name (List.nth words (List.length words - 1)))
      | _ ->
          let global = line <> "" && line.[0] <> ' ' in
          List.iter
            (fun prefix ->
              Option.iter
                (fun name -> declare (if global then "" else !scope) name)
                (after prefix trimmed))
            [ "channel float "; "SMI_Channel "; "float "; "hls::stream<float> "; "cl_mem " ])
    (String.split_on_char '\n' src);
  List.rev !acc

let test_injective_identifiers () =
  let p = colliding_names () in
  let valid name =
    name <> ""
    && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
         name
  in
  let check what src =
    let decls = declarations src in
    List.iter
      (fun (_, name) -> Alcotest.(check bool) (what ^ ": valid identifier " ^ name) true (valid name))
      decls;
    List.iter
      (fun (scope, name) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: declarations of %s in %S" what name scope)
          1
          (List.length (List.filter (( = ) (scope, name)) decls)))
      decls
  in
  List.iter (fun a -> check "opencl" a.Opencl.source) (Fixtures.ok (Opencl.generate p));
  List.iter
    (fun a -> check (Printf.sprintf "opencl device %d" a.Opencl.device) a.Opencl.source)
    (Fixtures.ok (Opencl.generate ~partition:(colliding_partition p) p));
  check "host" (Fixtures.ok (Opencl.host_source p));
  check "vitis" (Fixtures.ok (Sf_codegen.Vitis.generate p));
  (* Plain names stand for themselves; the others stay apart. *)
  Alcotest.(check (list string)) "spelled names"
    [ "o"; "x_dev"; "dev0"; "0mem"; "0mem_5Fo"; "0a_5F_5Fb"; "0s_2Etx"; "0x_5Fdev0"; "0" ]
    (List.map Ident.of_name [ "o"; "x_dev"; "dev0"; "mem"; "mem_o"; "a__b"; "s.tx"; "x_dev0"; "" ])

(* The kernels of a backend's source: the name after each [marker] (up to
   its parameter list) and the text up to the next marker. *)
let kernels ~marker src =
  let rec go from acc =
    match find_from src ~from marker with
    | None -> List.rev acc
    | Some at ->
        let start = at + String.length marker in
        let name = String.sub src start (String.index_from src start '(' - start) in
        let stop = Option.value (find_from src ~from:start marker) ~default:(String.length src) in
        go stop ((name, String.sub src start (stop - start)) :: acc)
  in
  go 0 []

(* Every [sr_<field>[<index>]] of a kernel as (field, index text, whether
   a [float] declaration precedes it). *)
let registers text =
  let ident c = c = '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9') in
  let rec go from acc =
    match find_from text ~from "sr_" with
    | None -> List.rev acc
    | Some at when at > 0 && ident text.[at - 1] -> go (at + 3) acc
    | Some at -> (
        let stop = ref (at + 3) in
        while ident text.[!stop] do incr stop done;
        match text.[!stop] with
        | '[' ->
            let field = String.sub text (at + 3) (!stop - at - 3) in
            let close = String.index_from text !stop ']' in
            let index = String.sub text (!stop + 1) (close - !stop - 1) in
            let declared = at >= 6 && String.sub text (at - 6) 6 = "float " in
            go close ((field, index, declared) :: acc)
        | _ -> go !stop acc)
  in
  go 0 []

(* Over random programs at every legal W in {1, 2, 4}, on one device and
   split over 2 and 3 by [Partition.contiguous]: each shift register
   Opencl and Vitis declare has [register_elements] elements, each tap
   they read (and each word they shift in) lies inside it for every lane,
   and the expanded SDFG they print validates, its pipelines carry
   Internal_buffer's registers for every (stencil, field), and each of
   its shift-register containers has the paper's [size_elements]. Vitis
   prints the single-device SDFG only. *)
let prop_register_shape_from_internal_buffer =
  QCheck.Test.make ~count:150 ~name:"backends and SDFG take register shapes from Internal_buffer"
    Program_gen.arbitrary_program (fun p ->
      List.for_all
        (fun w ->
          let p = Sf_analysis.Vectorize.apply p w in
          let buffers_of name =
            let s = List.find (fun (s : Stencil.t) -> String.equal s.Stencil.name name) p.Program.stencils in
            Sf_analysis.Internal_buffer.of_accesses p (Stencil.accesses s)
          in
          let kernel_ok (name, text) =
            let buffers = buffers_of name in
            let reg field =
              (List.find (fun (b : Sf_analysis.Internal_buffer.t) -> b.field = field) buffers)
                .register_elements
            in
            let uses = registers text in
            let declared = List.filter_map (fun (f, i, d) -> if d then Some (f, i) else None) uses in
            List.sort compare (List.map fst declared)
            = List.sort compare (List.map (fun (b : Sf_analysis.Internal_buffer.t) -> b.field) buffers)
            && List.for_all (fun (f, i) -> int_of_string i = reg f) declared
            && List.for_all
                 (fun (f, i, _) ->
                   match String.split_on_char ' ' i with
                   | [ tap; "+"; "v" ] ->
                       let tap = int_of_string tap in
                       tap >= 0 && tap + w - 1 < reg f
                   | _ -> true)
                 uses
          in
          let expected =
            List.concat_map
              (fun (s : Stencil.t) ->
                List.filter_map
                  (fun (b : Sf_analysis.Internal_buffer.t) ->
                    if b.size_elements = 0 then None
                    else Some (Printf.sprintf "sr_%s__%s" s.Stencil.name b.field, [ b.size_elements ]))
                  (buffers_of s.Stencil.name))
              p.Program.stencils
          in
          let sdfg_ok (sdfg : Sf_sdfg.Sdfg.t) =
            let sdfg_registers =
              List.filter (fun c -> String.starts_with ~prefix:"sr_" c.Sf_sdfg.Sdfg.cname) sdfg.containers
            in
            Sf_sdfg.Sdfg.validate sdfg = Ok ()
            && List.for_all
                 (fun (pl : Sf_sdfg.Sdfg.pipeline) ->
                   List.map (fun (r : Sf_sdfg.Sdfg.register) -> r.buffer) pl.registers
                   = buffers_of pl.stencil.Stencil.name)
                 (Sf_sdfg.Sdfg.pipelines sdfg)
            && List.sort compare (List.map (fun c -> (c.Sf_sdfg.Sdfg.cname, c.extent)) sdfg_registers)
               = List.sort compare expected
          in
          let placement_ok partition =
            let opencl =
              String.concat ""
                (List.map (fun a -> a.Opencl.source) (Fixtures.ok (Opencl.generate ?partition p)))
            in
            List.for_all kernel_ok (kernels ~marker:"__kernel void stencil_" opencl)
            && sdfg_ok (Fixtures.ok (Opencl.lower ?partition p))
          in
          List.for_all kernel_ok (kernels ~marker:"void pe_" (Fixtures.ok (Sf_codegen.Vitis.generate p)))
          && List.for_all placement_ok
               (None
               :: List.map
                    (fun devices -> Some (Fixtures.ok1 (Partition.contiguous ~devices p)))
                    [ 2; 3 ]))
        (Sf_analysis.Vectorize.legal_widths p ~max:4))

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
    Alcotest.test_case "identifiers are valid and distinct under colliding names" `Quick
      test_injective_identifiers;
    Alcotest.test_case "expression rendering" `Quick test_expression_to_c;
    Alcotest.test_case "vitis backend structure" `Quick test_vitis_backend;
    Alcotest.test_case "vitis backend kitchen sink" `Quick test_vitis_kitchen_sink;
    Alcotest.test_case "vitis output of every example pinned" `Quick test_vitis_pinned;
    Alcotest.test_case "multi-device opencl output pinned" `Quick test_multi_device_pinned;
    Alcotest.test_case "graphviz export" `Quick test_dot_export;
    QCheck_alcotest.to_alcotest prop_register_shape_from_internal_buffer;
  ]
