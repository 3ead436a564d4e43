(* What every workload shares: the metric catalogue, the outcome record,
   timing and process-statistics helpers. *)

open Stencilflow

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* End-to-end metrics, measured with tracing off. Every workload reports
   each of them; one operation is a validated simulation on the
   simulator workloads and one request on serve-dse. Set-up times, and
   the simulator workloads' rates, are at the reference host speed (see
   Hostspeed). *)
let end_to_end = [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("peak_rss_mb", "MB") ]

(* Passes the serve stream runs, by name ("vectorize" for every width). *)
let pass_names =
  [
    "load-file";
    "vectorize";
    "stencil-fusion";
    "fold-cse";
    "delay-buffers";
    "partition";
    "performance-model";
    "simulate";
    "codegen-opencl";
  ]

(* Harness spans around library calls; their self time is reported as a
   share of the traced wall time. *)
let span_layers =
  [
    "frontend.program_json";
    "ir.builder";
    "ir.program.fingerprint";
    "sdfg.fusion";
    "sdfg.opt";
    "analysis.delay_buffer";
    "mapping.partition";
    "reference.inputs";
    "sim.engine.build";
    "sim.engine.run";
    "reference.interp";
    "sim.telemetry";
    "sim.faults";
    "toolchain.service.request";
  ]

(* Per-layer metrics, from the traced run. Every workload prints all of
   them; a metric of a layer the workload does not exercise reads 0.
   Metrics in time units are measured on every workload. *)
let per_layer =
  [
    ("bench.trace_overhead", "ratio");
    ("bench.traced_wall_s", "s");
    ("bench.spans", "count");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("ir.program.fingerprint_ms", "ms");
    ("analysis.delay_buffer.analyze_ms", "ms");
    ("reference.compile.eval_ns_per_cell", "ns");
    ("frontend.program_json.parse_mb_per_s", "MB/s");
  ]
  @ List.map (fun l -> (l ^ ".self_pct", "%")) span_layers
  @ [
      ("sim.sim_cycles", "cycles");
      ("sim.engine.loop_cycles_per_s", "cycles/s");
      ("sim.engine.minor_words_per_stage_cell", "words");
      ("sim.channel.words_pushed", "count");
      ("analysis.runtime_model.eq1_error_pct", "%");
      ("ir.op_count.work_flops_per_cell", "count");
      ("reference.interp.stage_cells_per_s", "cells/s");
      ("reference.interp.minor_words_per_stage_cell", "words");
      ("runtime.gc.minor_collections_per_op", "count");
      ("runtime.gc.major_collections_per_op", "count");
      ("sim.telemetry.profile_over_plain", "ratio");
    ]
  @ List.map
      (fun c -> ("sim.telemetry.stall_cycles." ^ c, "cycles"))
      [ "input_starved"; "output_full"; "bandwidth_denied"; "link_latency"; "pipeline_drain" ]
  @ [
      ("sim.faults.schedules_per_s", "1/s");
      ("support.executor.campaign_speedup", "ratio");
      ("sim.parallel.loop_speedup", "ratio");
      ("sim.parallel.pdes_speedup", "ratio");
      ("sim.parallel.cpu_util", "ratio");
      ("sim.link.network_bytes", "B");
      ("toolchain.service.queue_pct", "%");
      ("toolchain.service.exec_pct", "%");
      ("toolchain.service.overhead_pct", "%");
      ("toolchain.service.cold_over_warm", "ratio");
      ("toolchain.service.exec_p90_over_p50", "ratio");
      ("toolchain.cache.hit_ratio", "ratio");
      ("toolchain.cache.joined", "count");
      ("toolchain.cache.evictions", "count");
      ("toolchain.cache.stale", "count");
      ("toolchain.cache.executed_passes", "count");
    ]
  @ List.concat_map
      (fun p ->
        [
          ("toolchain.pass_manager." ^ p ^ ".self_pct", "%");
          ("toolchain.pass_manager." ^ p ^ ".executed", "count");
        ])
      pass_names

let time_units = [ "s"; "ms"; "us"; "ns" ]

(* Correctness gates of a run: operations attempted and failed, with the
   first few failure messages. *)
type gates = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let new_gates () = { attempted = 0; failed = 0; errors = [] }
let attempt gates = gates.attempted <- gates.attempted + 1

let fail gates msg =
  gates.failed <- gates.failed + 1;
  if List.length gates.errors < 5 then gates.errors <- msg :: gates.errors

(* What one run of a workload produced. *)
type outcome = {
  attempted : int;
  failed : int;
  errors : string list;
  metrics : metric list;
  spans : Spans.t option;  (* the traced run's spans *)
  calibration_s : float;  (* median Hostspeed kernel time *)
}

let outcome ?spans ?(calibration_s = 0.) (g : gates) metrics =
  { attempted = g.attempted; failed = g.failed; errors = List.rev g.errors; metrics; spans;
    calibration_s }

(* Timing ---------------------------------------------------------------- *)

let now = Util.monotime

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Run [f] repeatedly until [seconds] have passed since [start], at least
   [min_runs] times. *)
let repeat_until ~start ~seconds ~min_runs f =
  let rec go i = if i < min_runs || now () -. start < seconds then (f i; go (i + 1)) in
  go 0

let median_or_zero = function [] -> 0. | xs -> Stats.median xs
let ms s = s *. 1e3
let ratio a b = if b > 0. then a /. b else 0.
let pct a b = 100. *. ratio a b

(* Process statistics ------------------------------------------------------- *)

(* Peak resident set (VmHWM) of a process, in MB; 0 when /proc is
   absent. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0. (String.split_on_char '\n' text)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Minor words and collection counts of the calling domain around [f]. *)
type gc_delta = { minor_words : float; minor_collections : int; major_collections : int }

let with_gc f =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  ( v,
    {
      minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

(* Layer probes ------------------------------------------------------------ *)

(* Host nanoseconds per evaluation of a compiled stencil body
   (Compile.body) over a synthetic 64-slot context, the per-cell cost of
   stencil arithmetic in the reference interpreter and the simulator's
   units alike. *)
let eval_ns_per_cell ~cells (body : Expr.body) =
  let slots = Hashtbl.create 32 in
  let access ~field ~offsets =
    let idx =
      match Hashtbl.find_opt slots (field, offsets) with
      | Some i -> i
      | None ->
          let i = Hashtbl.length slots in
          Hashtbl.add slots (field, offsets) i;
          i
    in
    let i = idx land 63 in
    fun (ctx : float array) -> Array.unsafe_get ctx i
  in
  let fn = Compile.body ~access body in
  let data = Array.init 64 (fun i -> 0.25 +. (float_of_int i /. 7.)) in
  let sink = ref 0. in
  ignore (fn data);
  let (), dt =
    timed (fun () ->
        for i = 0 to cells - 1 do
          data.(i land 63) <- data.(i land 63) +. 1e-12;
          sink := !sink +. fn data
        done)
  in
  ignore (Sys.opaque_identity !sink);
  dt /. float_of_int cells *. 1e9

(* The stencil body with the most work (distinct flops per cell). *)
let widest_body (programs : Program.t list) =
  let flops (s : Stencil.t) = Expr.flop_count (Stencil.work_profile s) in
  let all = List.concat_map (fun (p : Program.t) -> p.Program.stencils) programs in
  let best =
    List.fold_left (fun best s -> if flops s > flops best then s else best) (List.hd all) all
  in
  best.Stencil.body

(* Median of [reps] timings of [f]. *)
let median_time ~reps f = Stats.median (List.init reps (fun _ -> snd (timed f)))

(* Self time of each of [span_layers] as a share of the traced wall time. *)
let layer_shares tracer =
  let self = Spans.self_by_name tracer in
  let wall = Spans.wall tracer in
  List.map
    (fun n ->
      let s = Option.value ~default:0. (Hashtbl.find_opt self n) in
      metric (n ^ ".self_pct") "%" (pct s wall))
    span_layers
