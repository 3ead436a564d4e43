open Sf_ir

(* Every identifier spells program names with [Opencl.ident]. *)
let ident = Opencl.ident
let top_function_name (p : Program.t) = "stencilflow_" ^ ident p.Program.name
let stream_name ~src ~dst = Printf.sprintf "s_%s__%s" (ident src) (ident dst)
let memory_stream o = Printf.sprintf "s_%s__mem" (ident o)

let emit_stencil_pe buf checked analysis (s : Stencil.t) ~consumers ~writes_memory =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let name = s.Stencil.name in
  let pe = ident name in
  let p = Program.Checked.program checked in
  let w = p.Program.vector_width in
  let n_words = Program.cells p / w in
  let { Sf_analysis.Delay_buffer.buffers; init_cycles = init; _ } =
    Sf_analysis.Delay_buffer.node_info analysis name
  in
  let stream_params =
    List.map
      (fun (b : Sf_analysis.Internal_buffer.t) ->
        Printf.sprintf "hls::stream<float>& in_%s" (ident b.field))
      buffers
    @ List.map (fun c -> Printf.sprintf "hls::stream<float>& out_%s" (ident c)) consumers
    @ if writes_memory then [ Printf.sprintf "hls::stream<float>& out_mem_%s" pe ] else []
  in
  add "void pe_%s(%s) {\n" pe (String.concat ", " stream_params);
  List.iter
    (fun (b : Sf_analysis.Internal_buffer.t) ->
      add "  float sr_%s[%d];\n" (ident b.field) b.register_elements;
      add "#pragma HLS ARRAY_PARTITION variable=sr_%s complete\n" (ident b.field))
    buffers;
  add "loop_%s:\n" pe;
  add "  for (long t = 0; t < %dL + %dL; ++t) {\n" init n_words;
  add "#pragma HLS PIPELINE II=1\n";
  (* Shift + update. *)
  List.iter
    (fun (b : Sf_analysis.Internal_buffer.t) ->
      let field = ident b.field in
      if b.register_elements > w then
        add "    for (int s = 0; s < %d; ++s) sr_%s[s] = sr_%s[s + %d];\n"
          (b.register_elements - w) field field w;
      let start = Sf_analysis.Internal_buffer.fill_step buffers b in
      let target = Printf.sprintf "sr_%s[%d + v]" field (b.register_elements - w) in
      add "    if (t >= %dL && t < %dL + %dL)\n" start start n_words;
      add "      for (int v = 0; v < %d; ++v) %s = in_%s.read();\n" w target field)
    buffers;
  add "    if (t >= %dL) {\n" init;
  add "      long cell = (t - %dL) * %d;\n" init w;
  add "      for (int v = 0; v < %d; ++v) {\n" w;
  Opencl.emit_compute buf checked buffers s ~result:"value";
  List.iter (fun c -> add "        out_%s.write(value);\n" (ident c)) consumers;
  if writes_memory then add "        out_mem_%s.write(value);\n" pe;
  add "      }\n    }\n  }\n}\n\n"

let generate_unchecked checked =
  let p = Program.Checked.program checked in
  let analysis = Sf_analysis.Delay_buffer.of_checked checked in
  let rank = Program.rank p in
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
        add "float pref_%s[%d];\n" (ident f.Field.name)
          (max 1 (Field.num_elements f ~shape:p.Program.shape)))
    p.Program.inputs;
  add "\n";
  (* Processing elements. *)
  List.iter
    (fun (s : Stencil.t) ->
      emit_stencil_pe buf checked analysis s
        ~consumers:(Program.Checked.consumers checked s.Stencil.name)
        ~writes_memory:(List.exists (String.equal s.Stencil.name) p.Program.outputs))
    p.Program.stencils;
  (* Readers and writers. *)
  List.iter
    (fun (f : Field.t) ->
      if Field.rank f = rank then begin
        let consumers = List.map ident (Program.Checked.consumers checked f.Field.name) in
        add "void read_%s(const float* mem%s) {\n" (ident f.Field.name)
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
      add "void write_%s(hls::stream<float>& in, float* mem) {\n" (ident o);
      add "  for (long idx = 0; idx < %dL; ++idx) {\n" (Program.cells p);
      add "#pragma HLS PIPELINE II=1\n";
      add "    mem[idx] = in.read();\n  }\n}\n\n" )
    p.Program.outputs;
  (* Top-level dataflow region: every input (streamed or prefetched) and
     every output arrives as a memory pointer, in declaration order. *)
  let mem_args =
    List.map (fun (f : Field.t) -> Printf.sprintf "const float* mem_%s" (ident f.Field.name))
      p.Program.inputs
    @ List.map (fun o -> Printf.sprintf "float* mem_%s" (ident o)) p.Program.outputs
  in
  add "extern \"C\" void %s(%s) {\n" (top_function_name p) (String.concat ", " mem_args);
  List.iter
    (fun (f : Field.t) ->
      if Field.rank f < rank then begin
        let elems = max 1 (Field.num_elements f ~shape:p.Program.shape) in
        let name = ident f.Field.name in
        add "  for (int i = 0; i < %d; ++i) pref_%s[i] = mem_%s[i];\n" elems name name
      end)
    p.Program.inputs;
  add "#pragma HLS DATAFLOW\n";
  (* Stream declarations carry the analysed delay-buffer depths. *)
  List.iter
    (fun (s : Stencil.t) ->
      List.iter
        (fun field ->
          if List.length (Program.Checked.axes checked field) = rank then begin
            let depth = max 1 (Sf_analysis.Delay_buffer.buffer_for analysis ~src:field ~dst:s.Stencil.name) in
            add "  hls::stream<float> %s;\n" (stream_name ~src:field ~dst:s.Stencil.name);
            add "#pragma HLS STREAM variable=%s depth=%d\n"
              (stream_name ~src:field ~dst:s.Stencil.name)
              depth
          end)
        (Program.Checked.reads checked s.Stencil.name))
    p.Program.stencils;
  List.iter
    (fun o ->
      add "  hls::stream<float> %s;\n" (memory_stream o);
      add "#pragma HLS STREAM variable=%s depth=8\n" (memory_stream o))
    p.Program.outputs;
  (* Invocations. *)
  List.iter
    (fun (f : Field.t) ->
      if Field.rank f = rank then
        add "  read_%s(mem_%s%s);\n" (ident f.Field.name) (ident f.Field.name)
          (String.concat ""
             (List.map
                (fun c -> ", " ^ stream_name ~src:f.Field.name ~dst:c)
                (Program.Checked.consumers checked f.Field.name))))
    p.Program.inputs;
  List.iter
    (fun (s : Stencil.t) ->
      let ins =
        List.filter_map
          (fun field ->
            if List.length (Program.Checked.axes checked field) = rank then
              Some (stream_name ~src:field ~dst:s.Stencil.name)
            else None)
          (Program.Checked.reads checked s.Stencil.name)
      in
      let outs =
        List.map (fun c -> stream_name ~src:s.Stencil.name ~dst:c)
          (Program.Checked.consumers checked s.Stencil.name)
        @
        if List.exists (String.equal s.Stencil.name) p.Program.outputs then
          [ memory_stream s.Stencil.name ]
        else []
      in
      add "  pe_%s(%s);\n" (ident s.Stencil.name) (String.concat ", " (ins @ outs)))
    p.Program.stencils;
  List.iter
    (fun o -> add "  write_%s(%s, mem_%s);\n" (ident o) (memory_stream o) (ident o))
    p.Program.outputs;
  add "}\n";
  Buffer.contents buf

let generate p = Opencl.checked generate_unchecked p
