open Sf_ir
module Sdfg = Sf_sdfg.Sdfg

let top_function_name (p : Program.t) = "stencilflow_" ^ Ident.of_name p.Program.name
let stream_name ~src ~dst = Printf.sprintf "s_%s__%s" (Ident.of_name src) (Ident.of_name dst)
let memory_stream o = Printf.sprintf "s_%s__mem" (Ident.of_name o)

(* The streams of a pipeline's ports (one device, so every stream is a
   channel). *)
let channels ports =
  List.filter_map (function Sdfg.Channel { src; dst; depth } -> Some (src, dst, depth) | _ -> None) ports

let emit_stencil_pe buf (p : Program.t) (pl : Sdfg.pipeline) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let pe = Ident.of_name pl.stencil.Stencil.name in
  let w = p.Program.vector_width in
  let writes_memory = List.exists (function Sdfg.Writer _ -> true | _ -> false) pl.outputs in
  let stream_params =
    List.map
      (fun { Sdfg.buffer = b; _ } -> Printf.sprintf "hls::stream<float>& in_%s" (Ident.of_name b.field))
      pl.registers
    @ List.map
        (fun (_, c, _) -> Printf.sprintf "hls::stream<float>& out_%s" (Ident.of_name c))
        (channels pl.outputs)
    @ if writes_memory then [ Printf.sprintf "hls::stream<float>& out_mem_%s" pe ] else []
  in
  add "void pe_%s(%s) {\n" pe (String.concat ", " stream_params);
  List.iter
    (fun { Sdfg.buffer = b; _ } ->
      add "  float sr_%s[%d];\n" (Ident.of_name b.field) b.register_elements;
      add "#pragma HLS ARRAY_PARTITION variable=sr_%s complete\n" (Ident.of_name b.field))
    pl.registers;
  add "loop_%s:\n" pe;
  add "  for (long t = 0; t < %dL + %dL; ++t) {\n" pl.init_cycles pl.words;
  add "#pragma HLS PIPELINE II=1\n";
  (* Shift + update. *)
  List.iter
    (fun { Sdfg.buffer = b; start } ->
      let field = Ident.of_name b.field in
      if b.register_elements > w then
        add "    for (int s = 0; s < %d; ++s) sr_%s[s] = sr_%s[s + %d];\n"
          (b.register_elements - w) field field w;
      let target = Printf.sprintf "sr_%s[%d + v]" field (b.register_elements - w) in
      add "    if (t >= %dL && t < %dL + %dL)\n" start start pl.words;
      add "      for (int v = 0; v < %d; ++v) %s = in_%s.read();\n" w target field)
    pl.registers;
  add "    if (t >= %dL) {\n" pl.init_cycles;
  add "      long cell = (t - %dL) * %d;\n" pl.init_cycles w;
  add "      for (int v = 0; v < %d; ++v) {\n" w;
  Opencl.emit_compute buf p pl ~result:"value";
  List.iter (fun (_, c, _) -> add "        out_%s.write(value);\n" (Ident.of_name c)) (channels pl.outputs);
  if writes_memory then add "        out_mem_%s.write(value);\n" pe;
  add "      }\n    }\n  }\n}\n\n"

let source (sdfg : Sdfg.t) =
  let p = Sdfg.program sdfg in
  let pipelines = Sdfg.pipelines sdfg in
  let rank = Program.rank p in
  (* The stencils a full-rank input streams to, in program order. *)
  let consumers field =
    List.concat_map
      (fun (pl : Sdfg.pipeline) ->
        List.filter_map (fun (src, dst, _) -> if src = field then Some dst else None) (channels pl.inputs))
      pipelines
  in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "// Generated by StencilFlow (OCaml reproduction), Vitis HLS backend\n";
  add "// Program: %s\n" p.Program.name;
  add "#include <hls_stream.h>\n#include <hls_math.h>\n\n";
  (* Lower-dimensional inputs live in program-scope arrays, loaded from
     their memory buffers by the top function before the dataflow region
     starts. *)
  List.iter
    (fun (f : Field.t) ->
      if Field.rank f < rank then
        add "float pref_%s[%d];\n" (Ident.of_name f.Field.name)
          (max 1 (Field.num_elements f ~shape:p.Program.shape)))
    p.Program.inputs;
  add "\n";
  (* Processing elements. *)
  List.iter (emit_stencil_pe buf p) pipelines;
  (* Readers and writers. *)
  List.iter
    (fun (f : Field.t) ->
      if Field.rank f = rank then begin
        let consumers = List.map Ident.of_name (consumers f.Field.name) in
        add "void read_%s(const float* mem%s) {\n" (Ident.of_name f.Field.name)
          (String.concat ""
             (List.map (fun c -> Printf.sprintf ", hls::stream<float>& out_%s" c) consumers));
        add "  for (long idx = 0; idx < %dL; ++idx) {\n" (Field.num_elements f ~shape:p.Program.shape);
        add "#pragma HLS PIPELINE II=1\n";
        List.iter (fun c -> add "    out_%s.write(mem[idx]);\n" c) consumers;
        add "  }\n}\n\n"
      end)
    p.Program.inputs;
  List.iter
    (fun o ->
      add "void write_%s(hls::stream<float>& in, float* mem) {\n" (Ident.of_name o);
      add "  for (long idx = 0; idx < %dL; ++idx) {\n" (Program.cells p);
      add "#pragma HLS PIPELINE II=1\n";
      add "    mem[idx] = in.read();\n  }\n}\n\n" )
    p.Program.outputs;
  (* Top-level dataflow region: every input (streamed or prefetched) and
     every output arrives as a memory pointer, in declaration order. *)
  let mem_args =
    List.map
      (fun (f : Field.t) -> Printf.sprintf "const float* mem_%s" (Ident.of_name f.Field.name))
      p.Program.inputs
    @ List.map (fun o -> Printf.sprintf "float* mem_%s" (Ident.of_name o)) p.Program.outputs
  in
  add "extern \"C\" void %s(%s) {\n" (top_function_name p) (String.concat ", " mem_args);
  List.iter
    (fun (f : Field.t) ->
      if Field.rank f < rank then begin
        let elems = max 1 (Field.num_elements f ~shape:p.Program.shape) in
        let name = Ident.of_name f.Field.name in
        add "  for (int i = 0; i < %d; ++i) pref_%s[i] = mem_%s[i];\n" elems name name
      end)
    p.Program.inputs;
  add "#pragma HLS DATAFLOW\n";
  (* Stream declarations carry the analysed delay-buffer depths. *)
  List.iter
    (fun (pl : Sdfg.pipeline) ->
      List.iter
        (fun (src, dst, depth) ->
          add "  hls::stream<float> %s;\n" (stream_name ~src ~dst);
          add "#pragma HLS STREAM variable=%s depth=%d\n" (stream_name ~src ~dst) (max 1 depth))
        (channels pl.inputs))
    pipelines;
  List.iter
    (fun o ->
      add "  hls::stream<float> %s;\n" (memory_stream o);
      add "#pragma HLS STREAM variable=%s depth=8\n" (memory_stream o))
    p.Program.outputs;
  (* Invocations. *)
  List.iter
    (fun (f : Field.t) ->
      if Field.rank f = rank then
        add "  read_%s(mem_%s%s);\n" (Ident.of_name f.Field.name) (Ident.of_name f.Field.name)
          (String.concat ""
             (List.map (fun c -> ", " ^ stream_name ~src:f.Field.name ~dst:c) (consumers f.Field.name))))
    p.Program.inputs;
  List.iter
    (fun (pl : Sdfg.pipeline) ->
      let stream (src, dst, _) = stream_name ~src ~dst in
      let outs =
        List.filter_map
          (function
            | Sdfg.Channel { src; dst; _ } -> Some (stream_name ~src ~dst)
            | Sdfg.Writer o -> Some (memory_stream o)
            | Sdfg.Smi _ | Sdfg.Prefetch _ -> None)
          pl.outputs
      in
      add "  pe_%s(%s);\n" (Ident.of_name pl.stencil.Stencil.name)
        (String.concat ", " (List.map stream (channels pl.inputs) @ outs)))
    pipelines;
  List.iter
    (fun o -> add "  write_%s(%s, mem_%s);\n" (Ident.of_name o) (memory_stream o) (Ident.of_name o))
    p.Program.outputs;
  add "}\n";
  Buffer.contents buf

let generate p = Result.map source (Opencl.lower p)
