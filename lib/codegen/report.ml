open Sf_ir
module Device = Sf_models.Device
module Resource = Sf_models.Resource
module Autotune = Sf_mapping.Autotune
module Partition = Sf_mapping.Partition

let markdown ?(device = Device.stratix10) (p : Program.t) =
  (* Checks the program: raises before any output on an invalid one. *)
  let checked = Program.check_exn p in
  let analysis = Sf_analysis.Delay_buffer.of_checked checked in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# StencilFlow report: %s\n\n" p.Program.name;
  add "- iteration space: %s (%d cells), dtype %s, vector width %d\n"
    (Sf_support.Util.string_concat_map " x " string_of_int p.Program.shape)
    (Program.cells p) (Dtype.name p.Program.dtype) p.Program.vector_width;
  add "- %d input field(s), %d stencil(s), %d output(s)\n\n"
    (List.length p.Program.inputs)
    (List.length p.Program.stencils)
    (List.length p.Program.outputs);

  add "## Stencil DAG\n\n";
  add
    "| stencil | reads | flops/cell | work flops | tree flops | init [cycles] | compute [cycles] | starts | first output |\n";
  add "|---|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun (s : Stencil.t) ->
      let info = Sf_analysis.Delay_buffer.node_info analysis s.Stencil.name in
      add "| %s | %s | %d | %d | %d | %d | %d | %d | %d |\n" s.Stencil.name
        (String.concat ", " (Program.Checked.reads checked s.Stencil.name))
        (Expr.flop_count (Stencil.op_profile s))
        (Expr.flop_count (Stencil.work_profile s))
        (Expr.flop_count (Stencil.tree_profile s))
        info.Sf_analysis.Delay_buffer.init_cycles info.Sf_analysis.Delay_buffer.compute_cycles
        (Sf_analysis.Delay_buffer.start_cycle analysis s.Stencil.name)
        (Sf_analysis.Delay_buffer.output_cycle analysis s.Stencil.name))
    p.Program.stencils;

  let buffered_edges = List.filter (fun (_, b) -> b > 0) analysis.Sf_analysis.Delay_buffer.edges in
  if buffered_edges <> [] then begin
    add "\n## Delay buffers (Sec. IV-B)\n\n";
    add "| edge | depth [words] |\n|---|---|\n";
    List.iter
      (fun ((u, v), depth) -> add "| %s -> %s | %d |\n" u v depth)
      buffered_edges
  end;

  add "\n## Runtime model (Eq. 1)\n\n";
  let n = Program.cells p / p.Program.vector_width in
  let latency = analysis.Sf_analysis.Delay_buffer.latency_cycles in
  let cycles = Sf_analysis.Runtime_model.analyzed_cycles p analysis in
  add "- latency L = %d cycles, N = %d words: C = %d cycles\n" latency n cycles;
  add "- at %.0f MHz: %s runtime, %s\n" (device.Device.frequency_hz /. 1e6)
    (Sf_support.Util.human_time (float_of_int cycles /. device.Device.frequency_hz))
    (Sf_support.Util.human_rate
       (Sf_analysis.Runtime_model.analyzed_ops_per_s ~frequency_hz:device.Device.frequency_hz p
          analysis));
  add "- initialization fraction: %.2f%%\n"
    (100. *. (float_of_int latency /. float_of_int cycles));

  add "\n## Data movement and roofline\n\n";
  let counts = Sf_analysis.Op_count.of_program p in
  add "- %d flops/cell; reads %d operands, writes %d (perfect reuse)\n"
    counts.Sf_analysis.Op_count.flops_per_cell counts.Sf_analysis.Op_count.read_elements
    counts.Sf_analysis.Op_count.written_elements;
  add "- sharing: %d work flops/cell vs %d fully-inlined tree flops/cell (%d saved by CSE)\n"
    counts.Sf_analysis.Op_count.work_flops_per_cell
    counts.Sf_analysis.Op_count.tree_flops_per_cell
    (counts.Sf_analysis.Op_count.tree_flops_per_cell
    - counts.Sf_analysis.Op_count.work_flops_per_cell);
  let ai = Sf_analysis.Op_count.ai_ops_per_byte p in
  add "- arithmetic intensity: %.3f Op/operand = %.3f Op/B\n"
    (Sf_analysis.Op_count.ai_ops_per_operand p) ai;
  add "- bandwidth-bound ceiling at %.1f GB/s effective: %s\n"
    (device.Device.vector_bw_cap /. 1e9)
    (Sf_support.Util.human_rate
       (Sf_analysis.Roofline.attainable_ops_per_s ~ai_ops_per_byte:ai
          ~bandwidth_bytes_per_s:device.Device.vector_bw_cap));
  add "- streaming demand: %d operands/cycle (%s at the device clock)\n"
    (Sf_analysis.Op_count.streaming_operands_per_cycle p)
    (Sf_support.Util.human_bytes_rate
       (Sf_analysis.Op_count.streaming_bytes_per_second
          ~frequency_hz:device.Device.frequency_hz p));

  add "\n## Resources on %s\n\n" device.Device.name;
  let usage = Resource.of_analysis analysis in
  let a, f, m, d = Resource.utilization device usage in
  add "| | ALM | FF | M20K | DSP |\n|---|---|---|---|---|\n";
  add "| estimated | %d | %d | %d | %d |\n" usage.Resource.alm usage.Resource.ff
    usage.Resource.m20k usage.Resource.dsp;
  add "| utilization | %.1f%% | %.1f%% | %.1f%% | %.1f%% |\n" (100. *. a) (100. *. f)
    (100. *. m) (100. *. d);

  add "\n## Vectorization sweep\n\n";
  (try
     let best, sweep = Autotune.choose ~device ~max_width:16 p in
     add "| W | model GOp/s | bandwidth-bound | fits |\n|---|---|---|---|\n";
     List.iter
       (fun e ->
         add "| %d | %.1f | %b | %b |%s\n" e.Autotune.vector_width
           (e.Autotune.modeled_ops_per_s /. 1e9)
           e.Autotune.bandwidth_bound e.Autotune.fits
           (if e.Autotune.vector_width = best.Autotune.vector_width then " <- recommended" else ""))
       sweep
   with Invalid_argument m -> add "no feasible width: %s\n" m);

  add "\n## Device mapping\n\n";
  (match Partition.greedy ~device checked with
  | Ok pt ->
      add "- fits on %d device(s)\n" pt.Partition.num_devices;
      if pt.Partition.cross_edges <> [] then begin
        add "- remote streams: %s\n"
          (Sf_support.Util.string_concat_map ", "
             (fun ((u, v), (d1, d2)) -> Printf.sprintf "%s->%s (%d->%d)" u v d1 d2)
             pt.Partition.cross_edges);
        add "- network feasible at W=%d: %b\n" p.Program.vector_width
          (Partition.network_feasible p pt ~device)
      end
  | Error d -> add "- does not fit: %s\n" d.Sf_support.Diag.message);
  Buffer.contents buf
