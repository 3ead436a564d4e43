(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Secs. VIII-IX). Each section prints the series/rows the
   paper reports next to this reproduction's numbers. Absolute values
   come from the calibrated device models and the cycle-level simulator
   (see DESIGN.md); the claims under reproduction are the *shapes*: who
   wins, by what factor, and where the bottlenecks fall.

   Run all sections:        dune exec bench/main.exe
   Run selected sections:   dune exec bench/main.exe -- fig14 tab2
   Sections: fig14 fig15 tab1 fig16 hdiff tab2 silicon fusion deadlock
            tiling autotune cse fp64 micro
   Add the pseudo-section "timings" to print per-section wall-clock
   times (monotonic clock, Util.monotime). *)
open Stencilflow

let section_timings : (string * float) list ref = ref []

(* [f ()] with its elapsed wall-clock seconds. *)
let stopwatch f =
  let t0 = Util.monotime () in
  let result = f () in
  (result, Util.monotime () -. t0)

let timed name f =
  let result, seconds = stopwatch f in
  section_timings := !section_timings @ [ (name, seconds) ];
  result

let dev = Device.stratix10
let f = dev.Device.frequency_hz

let heading title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

(* ------------------------------------------------------------------ *)
(* Chain performance model shared by Figs. 14-15 and Table I.          *)
(* ------------------------------------------------------------------ *)

type chain_point = {
  stages : int;
  devices : int;
  gop_s : float;
  bound : string; (* what stops further scaling at this point *)
}

let stage_latency kind ~shape ~w =
  let p = Iterative.chain ~shape ~vector_width:w kind ~length:1 in
  let a = Delay_buffer.analyze p in
  let info = Delay_buffer.node_info a "f1" in
  info.Delay_buffer.init_cycles + info.Delay_buffer.compute_cycles

let chain_model kind ~shape ~w ~stages ~devices ~bound =
  let flops = Iterative.flops_per_cell kind in
  let cells = List.fold_left ( * ) 1 shape in
  let n_words = cells / w in
  let latency = (stages * stage_latency kind ~shape ~w) + (128 * (devices - 1)) in
  let cycles = latency + n_words in
  let total_flops = float_of_int (stages * flops) *. float_of_int cells in
  { stages; devices; gop_s = total_flops /. (float_of_int cycles /. f); bound }

let max_stages kind ~shape ~w =
  let p = Iterative.chain ~shape ~vector_width:w kind ~length:1 in
  let per_stage = Resource.of_unit (Program.check_exn p) (List.hd p.Program.stencils) in
  Resource.max_chain_length dev ~per_stage ~fixed:Resource.zero

let print_points points =
  Printf.printf "%8s %8s %12s   %s\n" "stages" "devices" "GOp/s" "bound";
  List.iter
    (fun pt ->
      Printf.printf "%8d %8d %12.1f   %s\n" pt.stages pt.devices (pt.gop_s /. 1e9) pt.bound)
    points

(* Anchor the analytic chain model against the cycle-level simulator on
   a scaled-down instance. *)
let anchor_chain_model () =
  let shape = [ 32; 64 ] and w = 1 and stages = 8 in
  let p = Iterative.chain ~shape ~vector_width:w Iterative.Jacobi2d ~length:stages in
  match Engine.run_exn p with
  | Engine.Deadlocked _ -> Printf.printf "anchor: unexpected deadlock\n"
  | Engine.Completed stats ->
      let model = chain_model Iterative.Jacobi2d ~shape ~w ~stages ~devices:1 ~bound:"-" in
      let measured_gop =
        float_of_int (stages * Iterative.flops_per_cell Iterative.Jacobi2d)
        *. float_of_int (List.fold_left ( * ) 1 shape)
        /. (float_of_int stats.Engine.cycles /. f)
      in
      Printf.printf
        "model anchor (8-stage Jacobi2D, 32x64, simulated): %.2f GOp/s measured vs %.2f GOp/s \
         model (%.1f%% deviation)\n"
        (measured_gop /. 1e9) (model.gop_s /. 1e9)
        (100. *. Float.abs ((measured_gop /. model.gop_s) -. 1.))

let scaling_series kind ~w =
  let shape = Iterative.default_shape kind in
  let per_device = max_stages kind ~shape ~w in
  let single =
    List.filter_map
      (fun frac ->
        let stages = max 1 (per_device * frac / 100) in
        if stages <= per_device then
          Some
            (chain_model kind ~shape ~w ~stages ~devices:1
               ~bound:(if frac = 100 then "device full (ALM/DSP)" else "-"))
        else None)
      [ 12; 25; 50; 75; 100 ]
  in
  let multi =
    (* Distributed scaling: the network caps the cross-device word rate;
       W = 4 with two 40 Gbit/s links is the feasible maximum
       (Sec. VIII-C), so wider chains cannot span devices. *)
    let topo = Smi.chain ~devices:8 ~links_per_hop:dev.Device.links_per_hop in
    let w_max = Smi.max_vector_width topo dev ~element_bytes:4 ~streams_per_hop:1 in
    if w > w_max then []
    else
      List.map
        (fun devices ->
          chain_model kind ~shape ~w ~stages:(per_device * devices) ~devices
            ~bound:(if devices = 8 then "testbed size" else "-"))
        [ 2; 4; 6; 8 ]
  in
  (single @ multi, per_device)

let fig14 () =
  heading "Fig. 14: iterative stencil scaling, single and multi-node (W = 1)";
  let points, per_device = scaling_series Iterative.Jacobi3d ~w:1 in
  Printf.printf "Jacobi 3D chains, %d stages fill one device\n" per_device;
  print_points points;
  let single = List.find (fun p -> p.devices = 1 && p.stages = per_device) points in
  let eight = List.find_opt (fun p -> p.devices = 8) points in
  Printf.printf "\npaper:  264 GOp/s on one device, ~1.5 TOp/s on 8 FPGAs\n";
  Printf.printf "ours:   %.0f GOp/s on one device%s\n" (single.gop_s /. 1e9)
    (match eight with
    | Some p -> Printf.sprintf ", %.2f TOp/s on 8 FPGAs" (p.gop_s /. 1e12)
    | None -> "");
  anchor_chain_model ()

let fig15 () =
  heading "Fig. 15: iterative stencil scaling with 4-way vectorization";
  let points, per_device = scaling_series Iterative.Jacobi3d ~w:4 in
  Printf.printf "Jacobi 3D chains at W=4, %d stages fill one device\n" per_device;
  print_points points;
  let single = List.find (fun p -> p.devices = 1 && p.stages = per_device) points in
  let eight = List.find_opt (fun p -> p.devices = 8) points in
  Printf.printf "\npaper:  568.2 GOp/s on one device, 4.2 TOp/s on 8 FPGAs\n";
  Printf.printf "ours:   %.0f GOp/s on one device%s\n" (single.gop_s /. 1e9)
    (match eight with
    | Some p -> Printf.sprintf ", %.2f TOp/s on 8 FPGAs" (p.gop_s /. 1e12)
    | None -> "");
  let points1, n1 = scaling_series Iterative.Jacobi3d ~w:1 in
  let s1 = List.find (fun p -> p.devices = 1 && p.stages = n1) points1 in
  Printf.printf "shape check: vectorization multiplies single-device performance %.1fx\n"
    (single.gop_s /. s1.gop_s)

let tab1 () =
  heading "Table I: highest performing kernels and resource usage";
  Printf.printf "%-26s %10s %9s %9s %7s %6s\n" "kernel" "GOp/s" "ALM" "FF" "M20K" "DSP";
  let row kind w paper_gop =
    let shape = Iterative.default_shape kind in
    let stages = max_stages kind ~shape ~w in
    let program = Iterative.chain ~shape ~vector_width:w kind ~length:stages in
    let usage = Resource.of_program program in
    let model = chain_model kind ~shape ~w ~stages ~devices:1 ~bound:"" in
    let alm, ff, m20k, dsp = Resource.utilization dev usage in
    Printf.printf "%-26s %10.0f %8dK %8dK %7d %6d\n"
      (Printf.sprintf "%s W=%d (%d st.)" (Iterative.kind_name kind) w stages)
      (model.gop_s /. 1e9) (usage.Resource.alm / 1000)
      (usage.Resource.ff / 1000) usage.Resource.m20k usage.Resource.dsp;
    Printf.printf "%-26s %10s %8.1f%% %8.1f%% %6.1f%% %5.1f%%  (paper: %.0f GOp/s)\n" "" ""
      (100. *. alm) (100. *. ff) (100. *. m20k) (100. *. dsp) paper_gop
  in
  row Iterative.Jacobi3d 1 265.;
  row Iterative.Jacobi3d 8 921.;
  row Iterative.Diffusion2d 8 1313.;
  row Iterative.Diffusion3d 8 1152.;
  Printf.printf "\ncomparison rows quoted from the literature (Table I):\n";
  List.iter
    (fun e ->
      Printf.printf "%-36s %8.0f GOp/s   %s\n" e.Literature.label
        e.Literature.performance_gop_s e.Literature.platform)
    Literature.all

let fig16 () =
  heading "Fig. 16: effective off-chip bandwidth vs operands requested per cycle";
  Printf.printf "%10s %16s %16s\n" "operands" "scalar GB/s" "vectorized GB/s";
  List.iter
    (fun n ->
      let scalar =
        Memory_model.effective_bandwidth dev ~operands_per_cycle:n ~element_bytes:4
          ~vectorized:false
      in
      let vectorized =
        Memory_model.effective_bandwidth dev ~operands_per_cycle:n ~element_bytes:4
          ~vectorized:true
      in
      Printf.printf "%10d %16.1f %16.1f\n" n (scalar /. 1e9) (vectorized /. 1e9))
    [ 2; 4; 8; 12; 16; 20; 24; 28; 32; 36; 40; 44; 48; 56; 64 ];
  Printf.printf
    "\npaper: scalar access flattens at 36.4 GB/s (47%% of 76.8 GB/s peak) after ~24 points;\n";
  Printf.printf
    "       4-way vectorized access reaches 58.3 GB/s (76%%) with a 0.94x droop at 12 points\n";
  (* Validate one saturated point against the simulator's memory
     controller: a program demanding more than the cap streams at the
     cap. *)
  let p = Hdiff.program ~shape:[ 4; 16; 16 ] ~vector_width:8 () in
  let cap = Memory_model.bytes_per_cycle_cap dev ~vectorized:true in
  let config =
    Engine.Config.make ~bandwidth:(Engine.Config.bandwidth ~mem_bytes_per_cycle:cap ()) ()
  in
  match Engine.run_exn ~config p with
  | Engine.Deadlocked _ -> Printf.printf "simulator check: deadlock (unexpected)\n"
  | Engine.Completed stats ->
      let achieved =
        float_of_int (stats.Engine.bytes_read + stats.Engine.bytes_written)
        /. float_of_int stats.Engine.cycles
      in
      Printf.printf
        "simulator check (hdiff W=8, capped controller): %.0f B/cycle achieved vs %.0f B/cycle \
         cap\n"
        achieved cap

let hdiff_analysis () =
  heading "Sec. IX-A: horizontal diffusion analysis (Eqs. 2-4)";
  let p = Hdiff.program () in
  let counts = Op_count.of_program p in
  let profile = counts.Op_count.profile in
  Printf.printf "%-34s %10s %10s\n" "quantity" "paper" "ours";
  Printf.printf "%-34s %10d %10d\n" "additions" 87 profile.Expr.adds;
  Printf.printf "%-34s %10d %10d\n" "multiplications" 41 profile.Expr.muls;
  Printf.printf "%-34s %10d %10d\n" "square roots" 2 profile.Expr.sqrts;
  Printf.printf "%-34s %10d %10d\n" "min operations" 2 profile.Expr.mins;
  Printf.printf "%-34s %10d %10d\n" "max operations" 2 profile.Expr.maxs;
  Printf.printf "%-34s %10d %10d\n" "data-dependent branches" 20 profile.Expr.data_branches;
  Printf.printf "%-34s %10d %10d\n" "flops counted (adds+muls+sqrt)" 130
    counts.Op_count.flops_per_cell;
  let ai = Op_count.ai_ops_per_operand p in
  Printf.printf "%-34s %10.4f %10.4f\n" "AI [Op/operand] (Eq. 2)" (130. /. 9.) ai;
  let ai_b = Op_count.ai_ops_per_byte p in
  Printf.printf "%-34s %10.4f %10.4f\n" "AI [Op/B]" (65. /. 18.) ai_b;
  Printf.printf "%-34s %10.1f %10.1f\n" "roofline @58.3 GB/s [GOp/s]" 210.5
    (Roofline.attainable_ops_per_s ~ai_ops_per_byte:ai_b
       ~bandwidth_bytes_per_s:dev.Device.vector_bw_cap
    /. 1e9);
  Printf.printf "%-34s %10.1f %10.1f\n" "BW to saturate 917 GOp/s [GB/s]" 254.
    (Roofline.bandwidth_to_saturate ~compute_ops_per_s:917.1e9 ~ai_ops_per_byte:ai_b /. 1e9);
  Printf.printf "%-34s %10d %10d\n" "operands per cycle at W=1" 9
    (Op_count.streaming_operands_per_cycle p)

(* Application-level bandwidth efficiency: the paper's design achieves
   69% of the Fig. 16 microbenchmark bandwidth when the full horizontal
   diffusion runs (Sec. IX-B) - nine concurrent streams interleave less
   favourably than the isolated bandwidth test. *)
let application_bw_efficiency = 0.69

let tab2 () =
  heading "Table II: horizontal diffusion benchmarks (128 x 128 x 80, W = 8)";
  let p = Hdiff.program () in
  let fused, _ = Fusion.fuse_all p in
  let ai_b = Op_count.ai_ops_per_byte p in
  let total_flops = Op_count.total_flops p in
  let analysis = Delay_buffer.analyze fused in
  let n_words w = Program.cells p / w in
  (* Stratix 10, W=8: bandwidth-bound; throughput = achievable/demanded
     bandwidth times the application-level efficiency. *)
  let demand_bytes =
    float_of_int (Op_count.streaming_operands_per_cycle (Vectorize.apply p 8) * 4)
  in
  let cap_bytes = Memory_model.bytes_per_cycle_cap dev ~vectorized:true in
  let throughput = Float.min 1. (cap_bytes /. demand_bytes) *. application_bw_efficiency in
  let cycles_bw =
    float_of_int analysis.Delay_buffer.latency_cycles
    +. (float_of_int (n_words 8) /. throughput)
  in
  let runtime_bw = cycles_bw /. f in
  let perf_bw = total_flops /. runtime_bw in
  (* Stratix 10*, W=16, simulated infinite memory bandwidth: compute
     bound at one 16-wide word per cycle. *)
  let cycles_inf = float_of_int (analysis.Delay_buffer.latency_cycles + n_words 16) in
  let runtime_inf = cycles_inf /. f in
  let perf_inf = total_flops /. runtime_inf in
  let roof_frac perf = 100. *. perf /. (ai_b *. dev.Device.peak_bandwidth) in
  Printf.printf "%-14s %12s %14s %10s %8s\n" "platform" "runtime" "perf" "peak BW" "%Roof";
  Printf.printf "%-14s %12s %14s %10s %7.0f%%   (paper: 1178 us, 145 GOp/s, 52%%)\n"
    "Stratix 10" (Util.human_time runtime_bw) (Util.human_rate perf_bw)
    (Util.human_bytes_rate dev.Device.peak_bandwidth)
    (roof_frac perf_bw);
  Printf.printf "%-14s %12s %14s %10s %8s   (paper: 332 us, 513 GOp/s)\n" "Stratix 10*"
    (Util.human_time runtime_inf) (Util.human_rate perf_inf) "inf" "-";
  List.iter
    (fun (arch, paper) ->
      let runtime = Loadstore.runtime arch ~ai_ops_per_byte:ai_b ~total_flops in
      let perf = Loadstore.performance arch ~ai_ops_per_byte:ai_b in
      Printf.printf "%-14s %12s %14s %10s %7.0f%%   (paper: %s)\n" arch.Loadstore.name
        (Util.human_time runtime) (Util.human_rate perf)
        (Util.human_bytes_rate arch.Loadstore.bandwidth_bytes_per_s)
        (100. *. Loadstore.roof_fraction arch)
        paper)
    [
      (Loadstore.xeon_12c, "5270 us, 32 GOp/s, 13%");
      (Loadstore.p100, "810 us, 210 GOp/s, 8%");
      (Loadstore.v100, "201 us, 849 GOp/s, 26%");
    ];
  (* An honest measured row: this reproduction's own sequential reference
     interpreter on a reduced domain, scaled per cell. *)
  let small = Hdiff.program ~shape:[ 4; 64; 64 ] () in
  let inputs = Interp.random_inputs small in
  let _, elapsed = stopwatch (fun () -> Interp.run small ~inputs) in
  let measured =
    float_of_int (Op_count.of_program small).Op_count.flops_per_cell
    *. float_of_int (Program.cells small) /. elapsed
  in
  Printf.printf
    "%-14s %12s %14s %10s %8s   (measured: this work's OCaml interpreter, 1 core)\n"
    "OCaml ref."
    (Util.human_time (total_flops /. measured))
    (Util.human_rate measured) "-" "-";
  Printf.printf
    "\nshape checks: FPGA beats CPU %.1fx (paper 4.5x); V100 beats the bandwidth-bound FPGA \
     %.1fx (paper 5.9x)\n"
    (perf_bw /. Loadstore.performance Loadstore.xeon_12c ~ai_ops_per_byte:ai_b)
    (Loadstore.performance Loadstore.v100 ~ai_ops_per_byte:ai_b /. perf_bw);
  Printf.printf
    "without the memory bottleneck the FPGA overtakes the P100 (%.0f vs %.0f GOp/s) but not \
     the V100, as in the paper\n"
    (perf_inf /. 1e9)
    (Loadstore.performance Loadstore.p100 ~ai_ops_per_byte:ai_b /. 1e9);
  (* Cross-check the bandwidth-bound row on the simulator at a reduced
     domain: same W, same per-cycle bandwidth cap. *)
  let small = Hdiff.program ~shape:[ 8; 32; 32 ] ~vector_width:8 () in
  let config =
    Engine.Config.make
      ~bandwidth:(Engine.Config.bandwidth ~mem_bytes_per_cycle:cap_bytes ())
      ()
  in
  (match Engine.run_exn ~config small with
  | Engine.Deadlocked _ -> Printf.printf "simulator cross-check: deadlock (unexpected)\n"
  | Engine.Completed stats ->
      let words = Program.cells small / 8 in
      Printf.printf
        "simulator cross-check (reduced domain, capped controller): %d cycles for %d words -> \
         throughput factor %.2f (model %.2f before the application-efficiency factor)\n"
        stats.Engine.cycles words
        (float_of_int words /. float_of_int stats.Engine.cycles)
        (Float.min 1. (cap_bytes /. demand_bytes)));
  (perf_bw, perf_inf)

let silicon_section perf_bw perf_inf =
  heading "Sec. IX-C: silicon efficiency [GOp/s per mm^2]";
  let p = Hdiff.program () in
  let ai_b = Op_count.ai_ops_per_byte p in
  Printf.printf "%-24s %8s %8s\n" "platform" "paper" "ours";
  Printf.printf "%-24s %8.2f %8.2f\n" "Stratix 10 (bw-bound)" 0.21
    (Silicon.efficiency ~performance_ops_per_s:perf_bw ~die_area_mm2:dev.Device.die_area_mm2);
  Printf.printf "%-24s %8.2f %8.2f\n" "Stratix 10 (inf bw)" 0.71
    (Silicon.efficiency ~performance_ops_per_s:perf_inf ~die_area_mm2:dev.Device.die_area_mm2);
  Printf.printf "%-24s %8.2f %8.2f\n" "P100" 0.34
    (Silicon.efficiency
       ~performance_ops_per_s:(Loadstore.performance Loadstore.p100 ~ai_ops_per_byte:ai_b)
       ~die_area_mm2:Loadstore.p100.Loadstore.die_area_mm2);
  Printf.printf "%-24s %8.2f %8.2f\n" "V100" 1.04
    (Silicon.efficiency
       ~performance_ops_per_s:(Loadstore.performance Loadstore.v100 ~ai_ops_per_byte:ai_b)
       ~die_area_mm2:Loadstore.v100.Loadstore.die_area_mm2)

let fusion_study () =
  heading "Fig. 17: horizontal diffusion DAG before and after aggressive fusion";
  let p = Hdiff.program () in
  let fused, report = Fusion.fuse_all p in
  let before = Delay_buffer.analyze p and after = Delay_buffer.analyze fused in
  Printf.printf "%-36s %10s %10s\n" "" "before" "after";
  Printf.printf "%-36s %10d %10d\n" "stencil nodes" report.Fusion.stencils_before
    report.Fusion.stencils_after;
  let dataflow_edges p =
    let c = Program.check_exn p in
    List.fold_left
      (fun n s -> n + List.length (Program.Checked.reads c s.Stencil.name))
      0 p.Program.stencils
  in
  Printf.printf "%-36s %10d %10d\n" "dataflow edges" (dataflow_edges p) (dataflow_edges fused);
  Printf.printf "%-36s %10d %10d\n" "program latency L [cycles]"
    before.Delay_buffer.latency_cycles after.Delay_buffer.latency_cycles;
  Printf.printf "%-36s %10d %10d\n" "delay buffer total [words]"
    (Delay_buffer.total_delay_buffer_words before)
    (Delay_buffer.total_delay_buffer_words after);
  Printf.printf "%-36s %9.2f%% %9.2f%%\n" "initialization fraction"
    (100. *. Runtime_model.initialization_fraction p)
    (100. *. Runtime_model.initialization_fraction fused);
  Printf.printf "\nfused pairs: %s\n"
    (Util.string_concat_map ", " (fun (u, v) -> u ^ "->" ^ v) report.Fusion.fused_pairs)

let diamond_program () =
  let b = Builder.create ~name:"fig4" ~shape:[ 16; 64 ] () in
  Builder.input b "x";
  Builder.stencil b "a" Builder.E.(acc "x" [ 0; 0 ] *% c 2.);
  Builder.stencil b
    ~boundary:[ ("a", Boundary.Constant 0.) ]
    "b"
    Builder.E.(acc "a" [ 0; -8 ] +% acc "a" [ 0; 8 ]);
  Builder.stencil b "c" Builder.E.(acc "a" [ 0; 0 ] +% acc "b" [ 0; 0 ]);
  Builder.output b "c";
  Builder.finish b

let deadlock_study () =
  heading "Fig. 4: delay buffers prevent deadlocks";
  let p = diamond_program () in
  let a = Delay_buffer.analyze p in
  let skip_depth = Delay_buffer.buffer_for a ~src:"a" ~dst:"c" in
  Printf.printf "computed skip-edge buffer: %d words\n" skip_depth;
  (match
     Engine.run_exn
       ~config:
         (Engine.Config.make
            ~tracing:(Engine.Config.tracing ~trace_interval:32 ~telemetry:true ())
            ())
       p
   with
  | Engine.Completed stats ->
      Printf.printf "with buffers:    completed in %d cycles (model %d)\n" stats.Engine.cycles
        stats.Engine.predicted_cycles;
      (* Visualize the skip edge's occupancy over time: it fills during
         b's initialization phase, stays full while streaming (absorbing
         the path-latency difference), and drains at the end. *)
      let samples =
        List.filter_map
          (fun (_, occupancies) -> List.assoc_opt "a->c" occupancies)
          stats.Engine.telemetry.Telemetry.samples
      in
      let glyph occ =
        let levels = "_.:-=+*#" in
        let i = occ * (String.length levels - 1) / max 1 skip_depth in
        levels.[min (String.length levels - 1) i]
      in
      Printf.printf "a->c occupancy over time (0..%d words):\n  %s\n" skip_depth
        (String.init (List.length samples) (fun i -> glyph (List.nth samples i)))
  | Engine.Deadlocked _ -> Printf.printf "with buffers:    DEADLOCK (unexpected)\n");
  let config =
    Engine.Config.make ~channel_slack:2
      ~override_edge_buffers:[ (("a", "c"), 0) ]
      ~safety:(Engine.Config.safety ~deadlock_window:512 ())
      ()
  in
  match Engine.run_exn ~config p with
  | Engine.Completed _ -> Printf.printf "without buffers: completed (unexpected)\n"
  | Engine.Deadlocked { cycle; wait_cycle; _ } ->
      Printf.printf "without buffers: deadlock detected at cycle %d, as in Fig. 4\n" cycle;
      if wait_cycle <> [] then
        Printf.printf "circular wait: %s\n" (String.concat " -> " wait_cycle)


(* ------------------------------------------------------------------ *)
(* Ablations: design-choice studies beyond the paper's headline        *)
(* experiments (DESIGN.md).                                            *)
(* ------------------------------------------------------------------ *)

let tiling_ablation () =
  heading "Ablation (Sec. IX-D): spatial tiling of horizontal diffusion";
  let p = Hdiff.program () in
  let untiled_buffers =
    Delay_buffer.total_fast_memory_elements (Delay_buffer.analyze p)
  in
  Printf.printf "untiled on-chip buffering: %d elements (%.0f M20K equivalent)\n" untiled_buffers
    (float_of_int (untiled_buffers * 4) /. 2560.);
  Printf.printf "%12s %12s %16s %14s\n" "tile (JxI)" "tiles" "redundancy" "buffers/tile";
  List.iter
    (fun t ->
      let plan = Tiling.plan p ~tile_shape:[ 80; t; t ] in
      Printf.printf "%12s %12d %15.1f%% %14d\n"
        (Printf.sprintf "%dx%d" t t)
        (List.length plan.Tiling.tiles)
        (100. *. plan.Tiling.redundancy)
        (Tiling.buffer_elements_per_tile plan))
    [ 16; 32; 64; 128 ];
  Printf.printf
    "redundant computation scales with DAG depth x surface-to-volume, buffers with the tile's \
     inner extents, as Sec. IX-D argues\n";
  (* Correctness of the tiled schedule at a reduced domain. *)
  let small = Hdiff.program ~shape:[ 4; 16; 16 ] () in
  let inputs = Interp.random_inputs small in
  let plan = Tiling.plan small ~tile_shape:[ 4; 8; 8 ] in
  let tiled = Tiling.run_tiled plan ~inputs in
  let untiled = Interp.run small ~inputs in
  let exact =
    List.for_all
      (fun (name, (r : Interp.result)) ->
        Tensor.max_abs_diff r.Interp.tensor (List.assoc name tiled) < 1e-12)
      untiled
  in
  Printf.printf "tiled == untiled on a reduced domain: %b\n" exact

let autotune_ablation () =
  heading "Ablation: vectorization-width selection (Sec. IV-C / IX-B)";
  let p = Hdiff.program () in
  let best, sweep = Autotune.choose ~device:dev ~max_width:16 p in
  Printf.printf "%6s %14s %10s %8s\n" "W" "model GOp/s" "bw-bound" "fits";
  List.iter
    (fun e ->
      Printf.printf "%6d %14.1f %10b %8b%s\n" e.Autotune.vector_width
        (e.Autotune.modeled_ops_per_s /. 1e9)
        e.Autotune.bandwidth_bound e.Autotune.fits
        (if e.Autotune.vector_width = best.Autotune.vector_width then "   <- chosen" else ""))
    sweep;
  Printf.printf
    "the paper vectorizes horizontal diffusion by 8 to saturate bandwidth (Sec. IX-B); wider \
     widths only help once the memory bottleneck is simulated away\n"

let cse_ablation () =
  heading "Ablation: fusion + common subexpression elimination";
  let p = Hdiff.program ~shape:[ 8; 32; 32 ] () in
  let fused, _ = Fusion.fuse_all p in
  let optimized = Opt.optimize fused in
  let describe label q =
    let counts = Op_count.of_program q in
    let usage = Resource.of_program q in
    let a = Delay_buffer.analyze q in
    Printf.printf "%-24s %8d flops/cell %8d DSP %8d ALM %6d cycles L\n" label
      counts.Op_count.flops_per_cell usage.Resource.dsp usage.Resource.alm
      a.Delay_buffer.latency_cycles
  in
  describe "unfused" p;
  describe "fused (duplicated)" fused;
  describe "fused + CSE" optimized;
  (match Engine.run_and_validate optimized with
  | Ok _ -> Printf.printf "optimized program validates against the reference\n"
  | Error m -> Printf.printf "optimized program FAILED: %s\n" (Diag.to_string m));
  Printf.printf
    "fusion duplicates producer expressions per consuming access; CSE restores the sharing the \
     paper delegates to the downstream compiler (Sec. V-B)\n"

let fp64_ablation () =
  heading "Ablation: double precision (Sec. VIII-B: any data type is supported)";
  let f32 = Hdiff.program () in
  let f64 = Hdiff.program ~dtype:Dtype.F64 () in
  let row label p =
    let ai = Op_count.ai_ops_per_byte p in
    let roof =
      Roofline.attainable_ops_per_s ~ai_ops_per_byte:ai
        ~bandwidth_bytes_per_s:dev.Device.vector_bw_cap
    in
    Printf.printf "%-10s AI %.3f Op/B -> roofline %s; streaming demand %s at W=8\n" label ai
      (Util.human_rate roof)
      (Util.human_bytes_rate
         (Op_count.streaming_bytes_per_second ~frequency_hz:f (Vectorize.apply p 8)))
  in
  row "float32" f32;
  row "float64" f64;
  Printf.printf
    "halving the arithmetic intensity halves the bandwidth-bound roofline - double precision \
     makes the memory bottleneck twice as severe\n";
  (* The whole stack runs in f64 too. *)
  match Engine.run_and_validate (Hdiff.program ~shape:[ 4; 8; 8 ] ~dtype:Dtype.F64 ()) with
  | Ok _ -> Printf.printf "f64 simulation validates against the reference\n"
  | Error m -> Printf.printf "f64 simulation FAILED: %s\n" (Diag.to_string m)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: wall-clock cost of the framework itself, *)
(* one per experiment family.                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  heading "Micro-benchmarks (Bechamel): cost of the StencilFlow toolchain itself";
  let open Bechamel in
  let hdiff_small = Hdiff.program ~shape:[ 4; 16; 16 ] () in
  let chain16 = Iterative.chain ~shape:[ 32; 32 ] Iterative.Jacobi2d ~length:16 in
  let diamond = diamond_program () in
  let json = Program_json.to_string hdiff_small in
  let tests =
    [
      Test.make ~name:"fig14_chain_analysis"
        (Staged.stage (fun () -> ignore (Delay_buffer.analyze chain16)));
      Test.make ~name:"tab1_resource_estimate"
        (Staged.stage (fun () -> ignore (Resource.of_program chain16)));
      Test.make ~name:"fig16_memory_model"
        (Staged.stage (fun () ->
             ignore
               (Memory_model.effective_bandwidth dev ~operands_per_cycle:24 ~element_bytes:4
                  ~vectorized:true)));
      Test.make ~name:"tab2_hdiff_parse"
        (Staged.stage (fun () -> ignore (Result.get_ok (Program_json.of_string json))));
      Test.make ~name:"fig17_hdiff_fusion"
        (Staged.stage (fun () -> ignore (Fusion.fuse_all hdiff_small)));
      Test.make ~name:"fig4_diamond_simulation"
        (Staged.stage (fun () -> ignore (Engine.run_exn diamond)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ ns ] -> Printf.printf "%-32s %14.1f ns/run\n" name ns
          | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
        stats)
    tests

let () =
  let raw = List.tl (Array.to_list Sys.argv) in
  let show_timings = List.mem "timings" raw in
  let requested = List.filter (fun s -> s <> "timings") raw in
  let want name = requested = [] || List.mem name requested in
  if want "fig14" then timed "fig14" fig14;
  if want "fig15" then timed "fig15" fig15;
  if want "tab1" then timed "tab1" tab1;
  if want "fig16" then timed "fig16" fig16;
  if want "hdiff" then timed "hdiff" hdiff_analysis;
  (if want "tab2" || want "silicon" then
     let perf_bw, perf_inf = timed "tab2" tab2 in
     if want "silicon" then timed "silicon" (fun () -> silicon_section perf_bw perf_inf));
  if want "fusion" then timed "fusion" fusion_study;
  if want "deadlock" then timed "deadlock" deadlock_study;
  if want "tiling" then timed "tiling" tiling_ablation;
  if want "autotune" then timed "autotune" autotune_ablation;
  if want "cse" then timed "cse" cse_ablation;
  if want "fp64" then timed "fp64" fp64_ablation;
  if want "micro" then timed "micro" micro;
  if show_timings then begin
    Printf.printf "\nsection timings:\n";
    List.iter
      (fun (name, seconds) -> Printf.printf "  %-10s %10.1f ms\n" name (1000. *. seconds))
      !section_timings
  end;
  Printf.printf "\nAll requested sections complete. See EXPERIMENTS.md for the comparison log.\n"
