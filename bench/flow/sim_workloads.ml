(* The three simulator workloads: chain-sim, hdiff-sim and pdes-2dev.

   One operation is a validated simulation (Parallel.run_and_validate,
   which is the sequential engine for a one-device placement), run
   closed loop: the next starts when the previous one returns. Every run
   must match the reference interpreter and the pinned cycle count. The
   seed picks the input data; cycle counts do not depend on it. *)

open Stencilflow
open Harness

type spec = {
  build : unit -> Program.t;
  transform : bool;  (* Fusion.fuse_all, then Opt.optimize *)
  devices : int;
  pinned_cycles : int;
  telemetry : bool;  (* traced run: every fifth op repeats instrumented *)
  campaign : bool;  (* traced run: fault campaigns on hdiff-small *)
}

let chain ~shape ~length () = Iterative.chain ~shape Iterative.Jacobi2d ~length

let spec ~quick = function
  | "chain-sim" ->
      let shape, length, pinned_cycles =
        if quick then ([ 32; 32 ], 8, 1_801) else ([ 128; 128 ], 64, 34_881)
      in
      { build = chain ~shape ~length; transform = false; devices = 1; pinned_cycles;
        telemetry = true; campaign = false }
  | "hdiff-sim" ->
      let shape, pinned_cycles = if quick then ([ 4; 16; 16 ], 392) else ([ 8; 64; 64 ], 8_376) in
      { build = (fun () -> Hdiff.program ~shape ~vector_width:4 ()); transform = true;
        devices = 1; pinned_cycles; telemetry = false; campaign = true }
  | "pdes-2dev" ->
      let shape, length, pinned_cycles =
        if quick then ([ 32; 64 ], 8, 3_465) else ([ 128; 256 ], 32, 50_337)
      in
      { build = chain ~shape ~length; transform = false; devices = 2; pinned_cycles;
        telemetry = false; campaign = false }
  | name -> invalid_arg ("not a simulator workload: " ^ name)

let network = Engine.Config.network ~net_latency_cycles:128 ()

let config mode =
  Engine.Config.make ~network ~parallelism:(Engine.Config.parallelism ~mode ()) ()

type setup = {
  program : Program.t;
  placement : string -> int;
  inputs : (string * Tensor.t) list;
  stage_cells : float;
}

(* Everything before the first simulation: construct the program, apply
   the program transforms, fingerprint it, analyse its delay buffers,
   place it on devices and generate the seeded inputs. *)
let setup tracer ~seed spec =
  let span name f = Spans.with_span tracer name f in
  span "sim.setup" @@ fun () ->
  let p = span "ir.builder" spec.build in
  let p =
    if spec.transform then
      let p = span "sdfg.fusion" (fun () -> fst (Fusion.fuse_all p)) in
      span "sdfg.opt" (fun () -> Opt.optimize p)
    else p
  in
  ignore (span "ir.program.fingerprint" (fun () -> Program.fingerprint p));
  ignore
    (span "analysis.delay_buffer" (fun () ->
         Delay_buffer.analyze ~config:Engine.Config.default.Engine.Config.latency p));
  let placement =
    if spec.devices = 1 then fun _ -> 0
    else
      span "mapping.partition" (fun () ->
          match Partition.contiguous ~devices:spec.devices p with
          | Ok pt -> Partition.placement_fn pt
          | Error d -> failwith d.Diag.message)
  in
  let inputs = span "reference.inputs" (fun () -> Interp.random_inputs ~seed p) in
  let stage_cells = float_of_int (Program.cells p * List.length p.Program.stencils) in
  { program = p; placement; inputs; stage_cells }

let mode spec = if spec.devices > 1 then `Domains_per_device else `Sequential

(* Count one simulation against the gates: it must validate and take
   the pinned number of cycles. *)
let gate gates ~what spec result =
  attempt gates;
  let failed msg =
    fail gates (what ^ ": " ^ msg);
    None
  in
  match result with
  | Error (d : Diag.t) -> failed d.Diag.message
  | Ok (stats : Engine.stats) when stats.Engine.cycles <> spec.pinned_cycles ->
      failed (Printf.sprintf "%d cycles, pinned at %d" stats.Engine.cycles spec.pinned_cycles)
  | Ok stats -> Some stats

let validated_run ~mode s =
  Parallel.run_and_validate ~config:(config mode) ~placement:s.placement ~inputs:s.inputs
    s.program

let setup_reps ~quick = if quick then 1 else 5

(* Time [f], returning its result and the elapsed seconds at the
   reference host speed, from a kernel run just before it. *)
let calibrated f =
  let calib = Hostspeed.measure () in
  let v, dt = timed f in
  (v, dt *. Hostspeed.factor calib, calib)

(* End-to-end run: set up several times, then validated runs closed loop
   for [seconds]. Throughput is the reciprocal of the median run time,
   which a burst of host load on a few runs does not move. *)
let run_untraced ~quick ~seed ~seconds spec =
  let tracer = Spans.create ~enabled:false in
  let setups =
    List.init (setup_reps ~quick) (fun _ -> calibrated (fun () -> setup tracer ~seed spec))
  in
  let s, _, _ = List.hd (List.rev setups) in
  let gates = new_gates () in
  let latencies = ref [] and calibs = ref [] in
  repeat_until ~start:(now ()) ~seconds ~min_runs:3 (fun _ ->
      let r, dt, calib = calibrated (fun () -> validated_run ~mode:(mode spec) s) in
      ignore (gate gates ~what:"validated run" spec r);
      latencies := dt :: !latencies;
      calibs := calib :: !calibs);
  outcome ~calibration_s:(Stats.median !calibs) gates
    [
      metric "setup_s" "s" (Stats.median (List.map (fun (_, dt, _) -> dt) setups));
      metric "ops_per_s" "1/s" (1. /. Stats.median !latencies);
      metric "peak_rss_mb" "MB" (peak_rss_mb "self");
    ]

(* One traced operation, split at the engine's layer boundaries: system
   construction alone (Engine.Internal.build), the full simulation
   (build + cycle loop) and the comparison against the reference
   interpreter. *)
type traced_op = {
  mode : Engine.Config.par_mode;
  build_s : float;
  run_s : float;
  compare_s : float;
  run_words : float;
  compare_words : float;
  cpu_s : float;  (* process CPU seconds during the simulation *)
  stats : Engine.stats option;
  gc : gc_delta;
}

let traced_op tracer gates spec s ~mode ~request =
  let span name f = Spans.with_span tracer name f in
  let (build_s, run, cpu_s, compare), gc =
    with_gc @@ fun () ->
    Spans.with_span ~request tracer "sim.op" @@ fun () ->
    let (), build_s =
      timed (fun () ->
          span "sim.engine.build" (fun () ->
              ignore
                (Engine.Internal.build ~config:(config mode)
                   ~telemetry:(Telemetry.create ~enabled:false ())
                   ~placement:s.placement ~inputs:s.inputs s.program)))
    in
    let cpu0 = cpu_seconds () in
    let run =
      timed (fun () ->
          span "sim.engine.run" (fun () ->
              with_gc (fun () ->
                  Parallel.run_exn ~config:(config mode) ~placement:s.placement ~inputs:s.inputs
                    s.program)))
    in
    let cpu_s = cpu_seconds () -. cpu0 in
    let compare =
      match fst (fst run) with
      | Engine.Deadlocked { cycle; _ } ->
          let d = Diag.errorf ~code:Diag.Code.sim_mismatch "deadlocked at cycle %d" cycle in
          ((Error d, 0.), 0.)
      | Engine.Completed stats ->
          let (r, g), dt =
            timed (fun () ->
                span "reference.interp" (fun () ->
                    with_gc (fun () ->
                        Engine.Internal.compare_to_reference ~inputs:s.inputs s.program stats)))
          in
          ((r, g.minor_words), dt)
    in
    (build_s, run, cpu_s, compare)
  in
  let (_, run_gc), run_s = run in
  let (result, compare_words), compare_s = compare in
  let stats = gate gates ~what:"traced run" spec result in
  { mode; build_s; run_s; compare_s; run_words = run_gc.minor_words; compare_words; cpu_s;
    stats; gc }

let stall_metrics (stats : Engine.stats option) =
  let by_cause cause =
    match stats with
    | None -> 0
    | Some st ->
        List.fold_left
          (fun acc (c : Telemetry.counters) ->
            acc + Option.value ~default:0 (List.assoc_opt cause c.Telemetry.stalls_by_cause))
          0 st.Engine.telemetry.Telemetry.components
  in
  List.map
    (fun (cause, key) ->
      metric ("sim.telemetry.stall_cycles." ^ key) "cycles" (float_of_int (by_cause cause)))
    [
      (Telemetry.Input_starved, "input_starved");
      (Telemetry.Output_full, "output_full");
      (Telemetry.Bandwidth_denied, "bandwidth_denied");
      (Telemetry.Link_latency, "link_latency");
      (Telemetry.Pipeline_drain, "pipeline_drain");
    ]

(* Fault campaigns on hdiff-small: 25 seeded schedules each, fanned over
   two executor workers, then one serial campaign for the pool speedup.
   Every campaign must pass. *)
let campaigns tracer gates ~quick ~examples =
  let file = Filename.concat examples "horizontal_diffusion_small.json" in
  let p =
    Spans.with_span tracer "frontend.program_json" (fun () ->
        match Program_json.of_file file with
        | Ok p -> p
        | Error ds -> failwith (String.concat "; " (List.map Diag.to_string ds)))
  in
  let schedules = if quick then 2 else 25 in
  let run jobs =
    let r, dt =
      timed (fun () ->
          Spans.with_span tracer "sim.faults" (fun () -> Faults.campaign ~schedules ~jobs p))
    in
    attempt gates;
    (match r with
    | Ok report when Faults.passed report -> ()
    | Ok report ->
        fail gates
          (Printf.sprintf "fault campaign: %d of %d schedules failed"
             (List.length (Faults.failures report)) schedules)
    | Error d -> fail gates ("fault campaign baseline: " ^ d.Diag.message));
    dt
  in
  let parallel = List.init (if quick then 1 else 3) (fun _ -> run 2) in
  let serial = run 1 in
  let parallel_s = Stats.median parallel in
  let bytes = float_of_int (In_channel.with_open_bin file In_channel.length |> Int64.to_int) in
  ( float_of_int schedules /. parallel_s,
    serial /. parallel_s,
    bytes /. 1e6 /. Stats.median (Spans.durations tracer "frontend.program_json") )

(* Traced run: setups and operations wrapped in layer spans, plus the
   workload's own layer probes. Each traced operation follows an
   untraced one of the same engine, so the tracing overhead and the PDES
   speedup compare runs made under the same host conditions. *)
let run_traced ~quick ~seed ~seconds ~examples spec =
  let tracer = Spans.create ~enabled:true in
  let gates = new_gates () in
  let setups = List.init (setup_reps ~quick) (fun _ -> setup tracer ~seed spec) in
  let s = List.hd (List.rev setups) in
  let main_mode = mode spec in
  let untraced = ref [] in
  let ops = ref [] in
  let profiled = ref [] in
  let profiled_stats = ref None in
  repeat_until ~start:(now ()) ~seconds:(0.7 *. seconds) ~min_runs:4 (fun i ->
      (* pdes-2dev alternates engines so both see the same host state. *)
      let mode = if spec.devices > 1 && i mod 2 = 0 then `Sequential else main_mode in
      let r, dt = timed (fun () -> validated_run ~mode s) in
      ignore (gate gates ~what:"validated run" spec r);
      untraced := (mode, dt) :: !untraced;
      ops := traced_op tracer gates spec s ~mode ~request:i :: !ops;
      if spec.telemetry && i mod 5 = 0 then begin
        let config =
          Engine.Config.make ~tracing:(Engine.Config.tracing ~telemetry:true ()) ()
        in
        let r, dt =
          timed (fun () ->
              Spans.with_span ~request:i tracer "sim.telemetry" (fun () ->
                  Engine.run ~config ~placement:s.placement ~inputs:s.inputs s.program))
        in
        match gate gates ~what:"profiled run" spec r with
        | Some stats ->
            profiled := dt :: !profiled;
            profiled_stats := Some stats
        | None -> ()
      end);
  let ops = !ops in
  let of_mode m = List.filter (fun o -> o.mode = m) ops in
  let untraced_of m = List.filter_map (fun (m', dt) -> if m' = m then Some dt else None) !untraced in
  let plain = untraced_of main_mode in
  let main = of_mode main_mode in
  let seq = of_mode `Sequential in
  let med f l = median_or_zero (List.map f l) in
  let loop_s o = Float.max 1e-9 (o.run_s -. o.build_s) in
  let first_stats = List.find_map (fun o -> o.stats) ops in
  let count f = match first_stats with Some st -> float_of_int (f st) | None -> 0. in
  let cycles = count (fun st -> st.Engine.cycles) in
  let eval_ns =
    eval_ns_per_cell ~cells:(if quick then 10_000 else 2_000_000) (widest_body [ s.program ])
  in
  let schedules_per_s, campaign_speedup, parse_mb_per_s =
    if spec.campaign then campaigns tracer gates ~quick ~examples else (0., 0., 0.)
  in
  let wall = Spans.wall tracer in
  let per_op f = ratio (Util.sum_float (List.map f ops)) (float_of_int (List.length ops)) in
  let par = of_mode `Domains_per_device in
  let pdes = spec.devices > 1 in
  let predicted = count (fun st -> st.Engine.predicted_cycles) in
  let plain_run = med (fun o -> o.run_s) main in
  let span_ms name = ms (Stats.median (Spans.durations tracer name)) in
  outcome ~spans:tracer gates
    ([
       metric "bench.trace_overhead" "ratio"
         (ratio (med (fun o -> o.build_s +. o.run_s +. o.compare_s) main) (median_or_zero plain));
       metric "bench.traced_wall_s" "s" wall;
       metric "bench.spans" "count" (float_of_int (Spans.count tracer));
       metric "op_p50_ms" "ms" (ms (Stats.percentile plain 50.));
       metric "op_p90_ms" "ms" (ms (Stats.percentile plain 90.));
       metric "ir.program.fingerprint_ms" "ms" (span_ms "ir.program.fingerprint");
       metric "analysis.delay_buffer.analyze_ms" "ms" (span_ms "analysis.delay_buffer");
       metric "reference.compile.eval_ns_per_cell" "ns" eval_ns;
       metric "frontend.program_json.parse_mb_per_s" "MB/s" parse_mb_per_s;
     ]
    @ layer_shares tracer
    @ [
        metric "sim.sim_cycles" "cycles" cycles;
        metric "sim.engine.loop_cycles_per_s" "cycles/s" (ratio cycles (med loop_s main));
        metric "sim.engine.minor_words_per_stage_cell" "words"
          (ratio (med (fun o -> o.run_words) seq) s.stage_cells);
        metric "sim.channel.words_pushed" "count"
          (count (fun st ->
               List.fold_left
                 (fun acc (c : Telemetry.channel_info) -> acc + c.Telemetry.total_pushed)
                 0 st.Engine.telemetry.Telemetry.channels));
        metric "analysis.runtime_model.eq1_error_pct" "%"
          (pct (Float.abs (cycles -. predicted)) predicted);
        metric "ir.op_count.work_flops_per_cell" "count"
          (float_of_int (Op_count.of_program s.program).Op_count.work_flops_per_cell);
        metric "reference.interp.stage_cells_per_s" "cells/s"
          (ratio s.stage_cells (med (fun o -> o.compare_s) ops));
        metric "reference.interp.minor_words_per_stage_cell" "words"
          (ratio (med (fun o -> o.compare_words) ops) s.stage_cells);
        metric "runtime.gc.minor_collections_per_op" "count"
          (per_op (fun o -> float_of_int o.gc.minor_collections));
        metric "runtime.gc.major_collections_per_op" "count"
          (per_op (fun o -> float_of_int o.gc.major_collections));
        metric "sim.telemetry.profile_over_plain" "ratio"
          (if spec.telemetry then ratio (median_or_zero !profiled) plain_run else 0.);
      ]
    @ stall_metrics !profiled_stats
    @ [
        metric "sim.faults.schedules_per_s" "1/s" schedules_per_s;
        metric "support.executor.campaign_speedup" "ratio" campaign_speedup;
        metric "sim.parallel.loop_speedup" "ratio"
          (if pdes then ratio (med loop_s seq) (med loop_s par) else 0.);
        metric "sim.parallel.pdes_speedup" "ratio"
          (if pdes then ratio (median_or_zero (untraced_of `Sequential)) (median_or_zero plain)
           else 0.);
        metric "sim.parallel.cpu_util" "ratio"
          (if pdes then
             ratio (Util.sum_float (List.map (fun o -> o.cpu_s) par))
               (Util.sum_float (List.map (fun o -> o.run_s) par))
           else 0.);
        metric "sim.link.network_bytes" "B" (count (fun st -> st.Engine.network_bytes));
      ])
