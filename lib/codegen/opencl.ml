open Sf_ir
module Partition = Sf_mapping.Partition

type artifact = { device : int; filename : string; source : string }

let func_c_name = function
  | Expr.Sqrt -> "sqrtf"
  | Expr.Abs -> "fabsf"
  | Expr.Exp -> "expf"
  | Expr.Log -> "logf"
  | Expr.Pow -> "powf"
  | Expr.Min -> "fminf"
  | Expr.Max -> "fmaxf"
  | Expr.Sin -> "sinf"
  | Expr.Cos -> "cosf"
  | Expr.Floor -> "floorf"
  | Expr.Ceil -> "ceilf"

let binop_c = function
  | Expr.Add -> "+"
  | Expr.Sub -> "-"
  | Expr.Mul -> "*"
  | Expr.Div -> "/"
  | Expr.Lt -> "<"
  | Expr.Le -> "<="
  | Expr.Gt -> ">"
  | Expr.Ge -> ">="
  | Expr.Eq -> "=="
  | Expr.Ne -> "!="
  | Expr.And -> "&&"
  | Expr.Or -> "||"

let float_literal c =
  if Float.is_integer c && Float.abs c < 1e15 then Printf.sprintf "%.1ff" c
  else Printf.sprintf "%.9gf" c

let rec expression_to_c ~access expr =
  let atom e =
    match e with
    | Expr.Const _ | Expr.Var _ | Expr.Access _ | Expr.Call _ -> expression_to_c ~access e
    | Expr.Unary _ | Expr.Binary _ | Expr.Select _ ->
        "(" ^ expression_to_c ~access e ^ ")"
  in
  match expr with
  | Expr.Const c -> float_literal c
  | Expr.Var v -> v
  | Expr.Access { field; offsets } -> access ~field ~offsets
  | Expr.Unary (Expr.Neg, x) -> "-" ^ atom x
  | Expr.Unary (Expr.Not, x) -> "!" ^ atom x
  | Expr.Binary (op, x, y) -> Printf.sprintf "%s %s %s" (atom x) (binop_c op) (atom y)
  | Expr.Select { cond; if_true; if_false } ->
      Printf.sprintf "%s ? %s : %s" (atom cond) (atom if_true) (atom if_false)
  | Expr.Call (f, args) ->
      Printf.sprintf "%s(%s)" (func_c_name f)
        (Sf_support.Util.string_concat_map ", " (expression_to_c ~access) args)

(* Schedule a body's hash-consed DAG for emission: the programmer's let
   names are preserved, and every structurally shared non-leaf node is
   materialized as a [__tN] local so the generated kernel computes each
   shared value once and fans it out explicitly, instead of relying on
   the vendor compiler's CSE. *)
let scheduled_body (b : Expr.body) =
  let named, root = Dag.of_body_named b in
  Dag.extract ~min_size:2 ~prefix:"__t" ~keep:named root

let dim_names = [| "k"; "j"; "i" |]

(* Dimension variable names for a rank-d space: the last d entries. *)
let dims_for rank = Array.to_list (Array.sub dim_names (3 - rank) rank)

let ident = Ident.of_name

let channel_name ~src ~dst = Printf.sprintf "ch_%s__%s" (ident src) (ident dst)
let memory_channel o = Printf.sprintf "ch_%s__mem" (ident o)
let smi_channel ~src ~dst = Printf.sprintf "smi_%s__%s" (ident src) (ident dst)

(* The compute phase's body for lane v of [cell], as both backends emit
   it: the multi-index of cell + v (for boundary predication), the lets
   and [const float result = ...]. An access reads its shift-register
   tap, predicated by the boundary condition where it leaves the grid,
   or the program-scope prefetch array of a lower-dimensional input. *)
let emit_compute buf checked buffers (s : Stencil.t) ~result =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let p = Program.Checked.program checked in
  let shape = p.Program.shape in
  let dims = dims_for (Program.rank p) in
  let strides = Program.strides p in
  List.iteri
    (fun d dim ->
      add "        const long %s = ((cell + v) / %dL) %% %dL;\n" dim (List.nth strides d)
        (List.nth shape d))
    dims;
  let tap (b : Sf_analysis.Internal_buffer.t) offsets =
    Printf.sprintf "sr_%s[%d + v]" (ident b.field)
      Sf_analysis.Internal_buffer.(tap b (flatten_offset ~shape offsets))
  in
  let access ~field ~offsets =
    match
      List.find_opt (fun (b : Sf_analysis.Internal_buffer.t) -> b.field = field) buffers
    with
    | Some b ->
        let in_bounds =
          List.concat
            (List.mapi
               (fun d o ->
                 if o = 0 then []
                 else
                   [
                     Printf.sprintf "(%s + (%d) >= 0 && %s + (%d) < %d)" (List.nth dims d) o
                       (List.nth dims d) o (List.nth shape d);
                   ])
               offsets)
        in
        let value = tap b offsets in
        if in_bounds = [] then value
        else begin
          let fallback =
            match Stencil.boundary_for s field with
            | Boundary.Constant c -> float_literal c
            | Boundary.Copy -> tap b (List.map (fun _ -> 0) offsets)
          in
          Printf.sprintf "(%s ? %s : %s)" (String.concat " && " in_bounds) value fallback
        end
    | None ->
        let axes = Program.Checked.axes checked field in
        if axes = [] then Printf.sprintf "pref_%s[0]" (ident field)
        else begin
          let index =
            Sf_support.Util.string_concat_map " + "
              (fun (axis, o) ->
                let extent_inner =
                  List.fold_left
                    (fun acc a -> if a > axis then acc * List.nth shape a else acc)
                    1 axes
                in
                Printf.sprintf "(%s + (%d)) * %d" (List.nth dims axis) o extent_inner)
              (List.combine axes offsets)
          in
          Printf.sprintf "pref_%s[%s]" (ident field) index
        end
  in
  let body = scheduled_body s.Stencil.body in
  List.iter
    (fun (letname, e) -> add "        const float %s = %s;\n" letname (expression_to_c ~access e))
    body.Expr.lets;
  add "        const float %s = %s;\n" result (expression_to_c ~access body.Expr.result)

let emit_stencil_kernel buf checked analysis (s : Stencil.t) ~remote_in ~local_consumers
    ~remote_out ~writes_memory =
  let p = Program.Checked.program checked in
  let w = p.Program.vector_width in
  let name = s.Stencil.name in
  let n_words = Program.cells p / w in
  let { Sf_analysis.Delay_buffer.buffers; init_cycles = init; _ } =
    Sf_analysis.Delay_buffer.node_info analysis name
  in
  let add fmt = Printf.ksprintf (fun line -> Buffer.add_string buf line) fmt in
  add "__attribute__((max_global_work_dim(0)))\n";
  add "__attribute__((autorun))\n";
  add "__kernel void stencil_%s() {\n" (ident name);
  List.iter
    (fun (b : Sf_analysis.Internal_buffer.t) ->
      add "  float sr_%s[%d]; // flat span [%d, %d], read-ahead %d words\n" (ident b.field)
        b.register_elements b.min_flat b.max_flat b.init_words)
    buffers;
  (* Lower-dimensional inputs are read from the program-scope prefetch
     arrays, filled by the load_* kernels before the pipeline starts. *)
  add "  for (long t = 0; t < %dL + %dL; ++t) {\n" init n_words;
  (* Shift phase (fully unrolled). *)
  List.iter
    (fun (b : Sf_analysis.Internal_buffer.t) ->
      if b.register_elements > w then begin
        add "    #pragma unroll\n";
        let sr = ident b.field in
        add "    for (int s = 0; s < %d; ++s) sr_%s[s] = sr_%s[s + %d];\n"
          (b.register_elements - w) sr sr w
      end)
    buffers;
  (* Update phase: read one word from each active input stream. *)
  List.iter
    (fun (b : Sf_analysis.Internal_buffer.t) ->
      let start = Sf_analysis.Internal_buffer.fill_step buffers b in
      let target = Printf.sprintf "sr_%s[%d + v]" (ident b.field) (b.register_elements - w) in
      let source =
        if List.mem_assoc b.field remote_in then
          Printf.sprintf "SMI_Pop(&%s)" (smi_channel ~src:b.field ~dst:name)
        else Printf.sprintf "read_channel_intel(%s)" (channel_name ~src:b.field ~dst:name)
      in
      add "    if (t >= %dL && t < %dL + %dL) {\n" start start n_words;
      add "      #pragma unroll\n";
      add "      for (int v = 0; v < %d; ++v) %s = %s;\n" w target source;
      add "    }\n")
    buffers;
  (* Compute phase. *)
  add "    if (t >= %dL) {\n" init;
  add "      long cell = (t - %dL) * %d;\n" init w;
  add "      #pragma unroll\n";
  add "      for (int v = 0; v < %d; ++v) {\n" w;
  emit_compute buf checked buffers s ~result:"value_0";
  let emit_write target = add "        %s;\n" target in
  List.iter
    (fun consumer ->
      emit_write
        (Printf.sprintf "write_channel_intel(%s, value_0)" (channel_name ~src:name ~dst:consumer)))
    local_consumers;
  List.iter
    (fun consumer ->
      emit_write (Printf.sprintf "SMI_Push(&%s, value_0)" (smi_channel ~src:name ~dst:consumer)))
    remote_out;
  if writes_memory then
    emit_write (Printf.sprintf "write_channel_intel(%s, value_0)" (memory_channel name));
  add "      }\n";
  add "    }\n";
  add "  }\n";
  add "}\n\n"

let emit_reader buf (p : Program.t) (f : Field.t) consumers =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let elems = Field.num_elements f ~shape:p.Program.shape in
  add "__kernel void read_%s(__global const float* restrict mem) {\n" (ident f.Field.name);
  add "  for (long idx = 0; idx < %dL; ++idx) {\n" elems;
  add "    const float value = mem[idx];\n";
  List.iter
    (fun c ->
      add "    write_channel_intel(%s, value);\n" (channel_name ~src:f.Field.name ~dst:c))
    consumers;
  add "  }\n}\n\n"

let emit_writer buf (p : Program.t) output =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "__kernel void write_%s(__global float* restrict mem) {\n" (ident output);
  add "  for (long idx = 0; idx < %dL; ++idx) {\n" (Program.cells p);
  add "    mem[idx] = read_channel_intel(%s);\n" (memory_channel output);
  add "  }\n}\n\n"

let generate_unchecked ?partition checked =
  let p = Program.Checked.program checked in
  let partition = match partition with Some pt -> pt | None -> Partition.single_device checked in
  let analysis = Sf_analysis.Delay_buffer.of_checked checked in
  let device_of = Partition.placement_fn partition in
  let rank = Program.rank p in
  List.map
    (fun device ->
      let buf = Buffer.create 4096 in
      let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      add "// Generated by StencilFlow (OCaml reproduction) for device %d\n" device;
      add "// Program: %s, shape %s, W=%d\n" p.Program.name
        (Sf_support.Util.string_concat_map "x" string_of_int p.Program.shape)
        p.Program.vector_width;
      add "#pragma OPENCL EXTENSION cl_intel_channels : enable\n";
      add "#include \"smi.h\"\n\n";
      let local_stencils =
        List.filter (fun s -> device_of s.Stencil.name = device) p.Program.stencils
      in
      let is_local name = device_of name = device in
      (* Channel declarations: local edges with analysed depths. *)
      List.iter
        (fun (s : Stencil.t) ->
          let dst = s.Stencil.name in
          List.iter
            (fun field ->
              (* A channel carries a local stream: a stencil on this
                 device or a full-rank input (the others are prefetched). *)
              let local_stream =
                match Program.Checked.find checked field with
                | Program.Op _ -> is_local field
                | Program.Input f -> Field.rank f = rank
              in
              if local_stream then begin
                let depth =
                  Sf_analysis.Delay_buffer.buffer_for analysis ~src:field ~dst
                in
                add "channel float %s __attribute__((depth(%d)));\n"
                  (channel_name ~src:field ~dst) (max 1 depth)
              end)
            (Program.Checked.reads checked dst))
        local_stencils;
      List.iter
        (fun o ->
          if is_local o then
            add "channel float %s __attribute__((depth(%d)));\n" (memory_channel o) 8)
        p.Program.outputs;
      (* SMI channel declarations for remote streams touching this device. *)
      List.iter
        (fun ((src, dst), (d1, d2)) ->
          if d1 = device || d2 = device then
            add "SMI_Channel %s; // rank %d -> rank %d\n" (smi_channel ~src ~dst) d1 d2)
        partition.Partition.cross_edges;
      add "\n";
      (* Prefetch storage and loader kernels for lower-dimensional inputs
         used on this device; readers for streamed inputs. *)
      List.iter
        (fun (f : Field.t) ->
          let devices = List.assoc f.Field.name partition.Partition.replicated_inputs in
          if List.mem device devices && Field.rank f < rank
          then begin
            let elems = max 1 (Field.num_elements f ~shape:p.Program.shape) in
            let name = ident f.Field.name in
            add "float pref_%s[%d]; // lower-dimensional input, prefetched once\n" name elems;
            add "__kernel void load_%s(__global const float* restrict mem) {\n" name;
            add "  for (int idx = 0; idx < %d; ++idx) pref_%s[idx] = mem[idx];\n" elems name;
            add "}\n\n"
          end)
        p.Program.inputs;
      List.iter
        (fun (f : Field.t) ->
          let devices = List.assoc f.Field.name partition.Partition.replicated_inputs in
          if List.mem device devices && Field.rank f = rank then begin
            let consumers =
              List.filter
                (fun consumer -> device_of consumer = device)
                (Program.Checked.consumers checked f.Field.name)
            in
            if consumers <> [] then emit_reader buf p f consumers
          end)
        p.Program.inputs;
      (* Stencil kernels. *)
      List.iter
        (fun (s : Stencil.t) ->
          let name = s.Stencil.name in
          let consumers = Program.Checked.consumers checked name in
          let local_consumers = List.filter (fun c -> device_of c = device) consumers in
          let remote_out = List.filter (fun c -> device_of c <> device) consumers in
          let remote_in =
            List.filter_map
              (fun field ->
                match Program.Checked.find checked field with
                | Program.Op _ when device_of field <> device -> Some (field, device_of field)
                | Program.Op _ | Program.Input _ -> None)
              (Program.Checked.reads checked name)
          in
          emit_stencil_kernel buf checked analysis s ~remote_in ~local_consumers
            ~remote_out
            ~writes_memory:(List.exists (String.equal name) p.Program.outputs))
        local_stencils;
      (* Writers for outputs produced here. *)
      List.iter (fun o -> if is_local o then emit_writer buf p o) p.Program.outputs;
      {
        device;
        filename = Printf.sprintf "%s_device%d.cl" p.Program.name device;
        source = Buffer.contents buf;
      })
    (Sf_support.Util.range partition.Partition.num_devices)

let host_source_unchecked ?partition checked =
  let p = Program.Checked.program checked in
  let partition = match partition with Some pt -> pt | None -> Partition.single_device checked in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "// Host code for %s over %d device(s)\n" p.Program.name partition.Partition.num_devices;
  add "#include <CL/cl.h>\n\nint main(void) {\n";
  List.iter
    (fun (f : Field.t) ->
      let devices = List.assoc f.Field.name partition.Partition.replicated_inputs in
      let bytes = Field.size_bytes f ~shape:p.Program.shape and name = ident f.Field.name in
      List.iter
        (fun d ->
          add "  cl_mem buf_%s_dev%d = clCreateBuffer(ctx[%d], CL_MEM_READ_ONLY, %d, NULL, NULL);\n"
            name d d bytes;
          add "  clEnqueueWriteBuffer(queue[%d], buf_%s_dev%d, CL_TRUE, 0, %d, host_%s, 0, NULL, NULL); // replicate\n"
            d name d bytes name)
        devices)
    p.Program.inputs;
  List.iter
    (fun o ->
      let d = Partition.placement_fn partition o in
      add "  cl_mem buf_%s = clCreateBuffer(ctx[%d], CL_MEM_WRITE_ONLY, %d, NULL, NULL);\n" (ident o)
        d (Program.cells p * Dtype.size_bytes p.Program.dtype))
    p.Program.outputs;
  add "  // launch reader/writer kernels; autorun stencil kernels start on configuration\n";
  List.iter
    (fun (f : Field.t) ->
      List.iter
        (fun d ->
          add "  clEnqueueTask(queue[%d], kernel_read_%s, 0, NULL, NULL);\n" d (ident f.Field.name))
        (List.assoc f.Field.name partition.Partition.replicated_inputs))
    p.Program.inputs;
  List.iter
    (fun o ->
      let d = Partition.placement_fn partition o and name = ident o in
      add "  clEnqueueTask(queue[%d], kernel_write_%s, 0, NULL, NULL);\n" d name;
      add "  clEnqueueReadBuffer(queue[%d], buf_%s, CL_TRUE, 0, %d, host_%s, 0, NULL, NULL);\n" d
        name
        (Program.cells p * Dtype.size_bytes p.Program.dtype)
        name)
    p.Program.outputs;
  add "  return 0;\n}\n";
  Buffer.contents buf

module Diag = Sf_support.Diag

let checked f p =
  match Program.check p with
  | Ok checked -> (
      try Ok (f checked)
      with Invalid_argument m | Failure m ->
        Error [ Diag.errorf ~code:Diag.Code.codegen "code generation failed: %s" m ])
  | Error msgs -> Error (List.map (Diag.error ~code:Diag.Code.validation) msgs)

let generate ?partition p = checked (generate_unchecked ?partition) p
let host_source ?partition p = checked (host_source_unchecked ?partition) p
