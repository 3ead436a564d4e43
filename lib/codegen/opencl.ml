open Sf_ir
module Sdfg = Sf_sdfg.Sdfg

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

let channel_name ~src ~dst = Printf.sprintf "ch_%s__%s" (Ident.of_name src) (Ident.of_name dst)
let memory_channel o = Printf.sprintf "ch_%s__mem" (Ident.of_name o)
let smi_channel ~src ~dst = Printf.sprintf "smi_%s__%s" (Ident.of_name src) (Ident.of_name dst)

(* The compute phase's body for lane v of [cell], as both backends emit
   it: the multi-index of cell + v (for boundary predication), the lets
   and [const float result = ...]. An access reads its shift-register
   tap, predicated by the boundary condition where it leaves the grid,
   or the program-scope prefetch array of a lower-dimensional input. *)
let emit_compute buf (p : Program.t) (pl : Sdfg.pipeline) ~result =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let shape = p.Program.shape in
  let dims = dims_for (Program.rank p) in
  let strides = Program.strides p in
  List.iteri
    (fun d dim ->
      add "        const long %s = ((cell + v) / %dL) %% %dL;\n" dim (List.nth strides d)
        (List.nth shape d))
    dims;
  let tap (b : Sf_analysis.Internal_buffer.t) offsets =
    Printf.sprintf "sr_%s[%d + v]" (Ident.of_name b.field)
      Sf_analysis.Internal_buffer.(tap b (flatten_offset ~shape offsets))
  in
  let access ~field ~offsets =
    match List.find_opt (fun (r : Sdfg.register) -> r.buffer.field = field) pl.registers with
    | Some { buffer = b; _ } ->
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
            match Stencil.boundary_for pl.stencil field with
            | Boundary.Constant c -> float_literal c
            | Boundary.Copy -> tap b (List.map (fun _ -> 0) offsets)
          in
          Printf.sprintf "(%s ? %s : %s)" (String.concat " && " in_bounds) value fallback
        end
    | None ->
        let axes =
          List.find_map
            (function Sdfg.Prefetch f when f.Field.name = field -> Some f.Field.axes | _ -> None)
            pl.inputs
          |> Option.get
        in
        if axes = [] then Printf.sprintf "pref_%s[0]" (Ident.of_name field)
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
          Printf.sprintf "pref_%s[%s]" (Ident.of_name field) index
        end
  in
  let body = scheduled_body pl.stencil.Stencil.body in
  List.iter
    (fun (letname, e) -> add "        const float %s = %s;\n" letname (expression_to_c ~access e))
    body.Expr.lets;
  add "        const float %s = %s;\n" result (expression_to_c ~access body.Expr.result)

(* The read of a register's stream: a channel on this device, or SMI from
   another. *)
let pop (pl : Sdfg.pipeline) field =
  Option.get
    (List.find_map
       (function
         | Sdfg.Channel { src; dst; _ } when src = field ->
             Some (Printf.sprintf "read_channel_intel(%s)" (channel_name ~src ~dst))
         | Sdfg.Smi { src; dst; _ } when src = field ->
             Some (Printf.sprintf "SMI_Pop(&%s)" (smi_channel ~src ~dst))
         | _ -> None)
       pl.inputs)

let emit_stencil_kernel buf (p : Program.t) (pl : Sdfg.pipeline) =
  let w = p.Program.vector_width in
  let add fmt = Printf.ksprintf (fun line -> Buffer.add_string buf line) fmt in
  add "__attribute__((max_global_work_dim(0)))\n";
  add "__attribute__((autorun))\n";
  add "__kernel void stencil_%s() {\n" (Ident.of_name pl.stencil.Stencil.name);
  List.iter
    (fun { Sdfg.buffer = b; _ } ->
      add "  float sr_%s[%d]; // flat span [%d, %d], read-ahead %d words\n" (Ident.of_name b.field)
        b.register_elements b.min_flat b.max_flat b.init_words)
    pl.registers;
  (* Lower-dimensional inputs are read from the program-scope prefetch
     arrays, filled by the load_* kernels before the pipeline starts. *)
  add "  for (long t = 0; t < %dL + %dL; ++t) {\n" pl.init_cycles pl.words;
  (* Shift phase (fully unrolled). *)
  List.iter
    (fun { Sdfg.buffer = b; _ } ->
      if b.register_elements > w then begin
        add "    #pragma unroll\n";
        let sr = Ident.of_name b.field in
        add "    for (int s = 0; s < %d; ++s) sr_%s[s] = sr_%s[s + %d];\n"
          (b.register_elements - w) sr sr w
      end)
    pl.registers;
  (* Update phase: read one word from each active input stream. *)
  List.iter
    (fun { Sdfg.buffer = b; start } ->
      let target =
        Printf.sprintf "sr_%s[%d + v]" (Ident.of_name b.field) (b.register_elements - w)
      in
      add "    if (t >= %dL && t < %dL + %dL) {\n" start start pl.words;
      add "      #pragma unroll\n";
      add "      for (int v = 0; v < %d; ++v) %s = %s;\n" w target (pop pl b.field);
      add "    }\n")
    pl.registers;
  (* Compute phase. *)
  add "    if (t >= %dL) {\n" pl.init_cycles;
  add "      long cell = (t - %dL) * %d;\n" pl.init_cycles w;
  add "      #pragma unroll\n";
  add "      for (int v = 0; v < %d; ++v) {\n" w;
  emit_compute buf p pl ~result:"value_0";
  (* Local consumers, then remote ones, then memory. *)
  let write select = List.iter (fun port -> Option.iter (add "        %s;\n") (select port)) pl.outputs in
  write (function
    | Sdfg.Channel { src; dst; _ } ->
        Some (Printf.sprintf "write_channel_intel(%s, value_0)" (channel_name ~src ~dst))
    | _ -> None);
  write (function
    | Sdfg.Smi { src; dst; _ } -> Some (Printf.sprintf "SMI_Push(&%s, value_0)" (smi_channel ~src ~dst))
    | _ -> None);
  write (function
    | Sdfg.Writer o -> Some (Printf.sprintf "write_channel_intel(%s, value_0)" (memory_channel o))
    | _ -> None);
  add "      }\n";
  add "    }\n";
  add "  }\n";
  add "}\n\n"

let emit_reader buf (p : Program.t) (f : Field.t) consumers =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let elems = Field.num_elements f ~shape:p.Program.shape in
  add "__kernel void read_%s(__global const float* restrict mem) {\n" (Ident.of_name f.Field.name);
  add "  for (long idx = 0; idx < %dL; ++idx) {\n" elems;
  add "    const float value = mem[idx];\n";
  List.iter
    (fun c ->
      add "    write_channel_intel(%s, value);\n" (channel_name ~src:f.Field.name ~dst:c))
    consumers;
  add "  }\n}\n\n"

let emit_writer buf (p : Program.t) output =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "__kernel void write_%s(__global float* restrict mem) {\n" (Ident.of_name output);
  add "  for (long idx = 0; idx < %dL; ++idx) {\n" (Program.cells p);
  add "    mem[idx] = read_channel_intel(%s);\n" (memory_channel output);
  add "  }\n}\n\n"

let stream_consumers pipelines field =
  List.filter_map
    (fun (pl : Sdfg.pipeline) ->
      if List.exists (function Sdfg.Channel { src; _ } -> src = field | _ -> false) pl.inputs
      then Some pl.stencil.name
      else None)
    pipelines

(* An input is copied to every device that reads it. *)
let reads_input (pl : Sdfg.pipeline) field =
  List.exists
    (function
      | Sdfg.Channel { src; _ } -> src = field
      | Sdfg.Prefetch f -> f.Field.name = field
      | Sdfg.Smi _ | Sdfg.Writer _ -> false)
    pl.inputs

let input_devices (sdfg : Sdfg.t) pipelines field =
  List.filter
    (fun d -> List.exists (fun (pl : Sdfg.pipeline) -> pl.device = d && reads_input pl field) pipelines)
    (Sf_support.Util.range sdfg.devices)

let device_of pipelines name =
  (List.find (fun (pl : Sdfg.pipeline) -> pl.stencil.name = name) pipelines).device

let kernels (sdfg : Sdfg.t) =
  let p = Sdfg.program sdfg in
  let pipelines = Sdfg.pipelines sdfg in
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
      let local = List.filter (fun (pl : Sdfg.pipeline) -> pl.device = device) pipelines in
      let is_local o = device_of pipelines o = device in
      (* Channel declarations: local streams with analysed depths. *)
      List.iter
        (fun (pl : Sdfg.pipeline) ->
          List.iter
            (function
              | Sdfg.Channel { src; dst; depth } ->
                  add "channel float %s __attribute__((depth(%d)));\n" (channel_name ~src ~dst)
                    (max 1 depth)
              | _ -> ())
            pl.inputs)
        local;
      List.iter
        (fun o ->
          if is_local o then
            add "channel float %s __attribute__((depth(%d)));\n" (memory_channel o) 8)
        p.Program.outputs;
      (* SMI channel declarations for remote streams touching this device. *)
      List.iter
        (fun (pl : Sdfg.pipeline) ->
          List.iter
            (function
              | Sdfg.Smi { src; dst; src_rank; dst_rank }
                when src_rank = device || dst_rank = device ->
                  add "SMI_Channel %s; // rank %d -> rank %d\n" (smi_channel ~src ~dst) src_rank
                    dst_rank
              | _ -> ())
            pl.inputs)
        pipelines;
      add "\n";
      (* Prefetch storage and loader kernels for lower-dimensional inputs
         used on this device; readers for streamed inputs. *)
      List.iter
        (fun (f : Field.t) ->
          if Field.rank f < rank && List.mem device (input_devices sdfg pipelines f.Field.name) then begin
            let elems = max 1 (Field.num_elements f ~shape:p.Program.shape) in
            let name = Ident.of_name f.Field.name in
            add "float pref_%s[%d]; // lower-dimensional input, prefetched once\n" name elems;
            add "__kernel void load_%s(__global const float* restrict mem) {\n" name;
            add "  for (int idx = 0; idx < %d; ++idx) pref_%s[idx] = mem[idx];\n" elems name;
            add "}\n\n"
          end)
        p.Program.inputs;
      List.iter
        (fun (f : Field.t) ->
          if Field.rank f = rank then begin
            let consumers = stream_consumers local f.Field.name in
            if consumers <> [] then emit_reader buf p f consumers
          end)
        p.Program.inputs;
      List.iter (emit_stencil_kernel buf p) local;
      (* Writers for outputs produced here. *)
      List.iter (fun o -> if is_local o then emit_writer buf p o) p.Program.outputs;
      {
        device;
        filename = Printf.sprintf "%s_device%d.cl" p.Program.name device;
        source = Buffer.contents buf;
      })
    (Sf_support.Util.range sdfg.devices)

let host (sdfg : Sdfg.t) =
  let p = Sdfg.program sdfg in
  let pipelines = Sdfg.pipelines sdfg in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "// Host code for %s over %d device(s)\n" p.Program.name sdfg.devices;
  add "#include <CL/cl.h>\n\nint main(void) {\n";
  List.iter
    (fun (f : Field.t) ->
      let bytes = Field.size_bytes f ~shape:p.Program.shape and name = Ident.of_name f.Field.name in
      List.iter
        (fun d ->
          add "  cl_mem buf_%s_dev%d = clCreateBuffer(ctx[%d], CL_MEM_READ_ONLY, %d, NULL, NULL);\n"
            name d d bytes;
          add "  clEnqueueWriteBuffer(queue[%d], buf_%s_dev%d, CL_TRUE, 0, %d, host_%s, 0, NULL, NULL); // replicate\n"
            d name d bytes name)
        (input_devices sdfg pipelines f.Field.name))
    p.Program.inputs;
  List.iter
    (fun o ->
      add "  cl_mem buf_%s = clCreateBuffer(ctx[%d], CL_MEM_WRITE_ONLY, %d, NULL, NULL);\n"
        (Ident.of_name o) (device_of pipelines o)
        (Program.cells p * Dtype.size_bytes p.Program.dtype))
    p.Program.outputs;
  add "  // launch reader/writer kernels; autorun stencil kernels start on configuration\n";
  List.iter
    (fun (f : Field.t) ->
      List.iter
        (fun d ->
          add "  clEnqueueTask(queue[%d], kernel_read_%s, 0, NULL, NULL);\n" d
            (Ident.of_name f.Field.name))
        (input_devices sdfg pipelines f.Field.name))
    p.Program.inputs;
  List.iter
    (fun o ->
      let d = device_of pipelines o and name = Ident.of_name o in
      add "  clEnqueueTask(queue[%d], kernel_write_%s, 0, NULL, NULL);\n" d name;
      add "  clEnqueueReadBuffer(queue[%d], buf_%s, CL_TRUE, 0, %d, host_%s, 0, NULL, NULL);\n" d
        name
        (Program.cells p * Dtype.size_bytes p.Program.dtype)
        name)
    p.Program.outputs;
  add "  return 0;\n}\n";
  Buffer.contents buf

module Diag = Sf_support.Diag

let lowered f =
  try Ok (Sdfg.expand_library_nodes (f ()))
  with Invalid_argument m | Failure m ->
    Error [ Diag.errorf ~code:Diag.Code.codegen "code generation failed: %s" m ]

let lower_analysis ?partition analysis = lowered (fun () -> Sdfg.of_analysis ?partition analysis)

let lower ?partition p =
  match Program.check p with
  | Ok checked -> lowered (fun () -> Sdfg.of_checked ?partition checked)
  | Error msgs -> Error (List.map (Diag.error ~code:Diag.Code.validation) msgs)

let generate ?partition p = Result.map kernels (lower ?partition p)
let host_source ?partition p = Result.map host (lower ?partition p)
