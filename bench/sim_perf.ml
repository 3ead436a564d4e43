(* Simulator throughput benchmark: how fast the cycle-level engine
   itself runs, in simulated cells/second and cycles/second of wall
   clock. This is the binding constraint on how large a stencil DAG,
   vector width or iterative-chain depth the evaluation harness can
   reach (the paper scales to 226-stage chains and the 139-node COSMO
   program), so its trajectory is tracked in BENCH_sim.json.

   Run:  dune exec bench/sim_perf.exe            (writes BENCH_sim.json)
         dune exec bench/sim_perf.exe -- --quick (fewer/smaller cases)
         dune exec bench/sim_perf.exe -- --quick --no-json
                                       (smoke run, no BENCH_sim.json
                                        overwrite; the @bench-smoke
                                        alias runs this in CI)

   Each case simulates a program to completion with unconstrained
   bandwidth (the hot configuration of the evaluation harness), checks
   the run completed, and reports the median of three runs. *)
open Stencilflow

type case = { name : string; program : Program.t; runs : int }

let jacobi_chain ~stages ~shape ~w =
  {
    name = Printf.sprintf "jacobi2d-%dstage-%dx%d-w%d" stages (List.nth shape 0) (List.nth shape 1) w;
    program = Iterative.chain ~shape ~vector_width:w Iterative.Jacobi2d ~length:stages;
    runs = 3;
  }

let hdiff_small ~w =
  let dir = if Sys.file_exists "examples/programs" then "examples/programs" else "../examples/programs" in
  let p =
    match Program_json.of_file (Filename.concat dir "horizontal_diffusion_small.json") with
    | Ok p -> p
    | Error ds -> failwith (String.concat "; " (List.map Diag.to_string ds))
  in
  let p = if w = p.Program.vector_width then p else Vectorize.apply p w in
  { name = Printf.sprintf "hdiff-small-w%d" w; program = p; runs = 3 }

let cases ~quick =
  if quick then
    [ jacobi_chain ~stages:8 ~shape:[ 64; 64 ] ~w:1; hdiff_small ~w:1 ]
  else
    [
      jacobi_chain ~stages:8 ~shape:[ 256; 256 ] ~w:1;
      jacobi_chain ~stages:16 ~shape:[ 256; 256 ] ~w:1;
      jacobi_chain ~stages:32 ~shape:[ 128; 128 ] ~w:1;
      jacobi_chain ~stages:64 ~shape:[ 128; 128 ] ~w:1;
      jacobi_chain ~stages:8 ~shape:[ 256; 256 ] ~w:4;
      jacobi_chain ~stages:8 ~shape:[ 256; 256 ] ~w:8;
      hdiff_small ~w:1;
      hdiff_small ~w:2;
      hdiff_small ~w:4;
    ]

type measurement = {
  case : case;
  cycles : int;
  seconds : float;
  cells : int;
  stages : int;
}

let measure ?(config = Engine.Config.default) case =
  let p = case.program in
  let inputs = Interp.random_inputs p in
  let samples =
    List.init case.runs (fun _ ->
        let t0 = Util.monotime () in
        match Engine.run_exn ~config ~inputs p with
        | Engine.Deadlocked _ -> failwith (case.name ^ ": unexpected deadlock")
        | Engine.Completed stats -> (Util.monotime () -. t0, stats.Engine.cycles))
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) samples in
  let seconds, cycles = List.nth sorted (List.length sorted / 2) in
  {
    case;
    cycles;
    seconds;
    cells = Program.cells p;
    stages = List.length p.Program.stencils;
  }

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let no_json = List.mem "--no-json" args in
  (* What the host can actually run concurrently: every speedup figure
     below is only meaningful relative to this. *)
  let host_cores = Executor.default_jobs () in
  Printf.printf "host cores: %d\n" host_cores;
  Printf.printf "%-32s %10s %10s %14s %14s\n" "case" "cycles" "wall [s]" "cells/s" "cycles/s";
  let results = List.map measure (cases ~quick) in
  List.iter
    (fun m ->
      (* Throughput in *simulated stage-cells* per wall second: each chain
         stage computes every cell once, so deeper chains do more work. *)
      let stage_cells = float_of_int (m.cells * m.stages) in
      Printf.printf "%-32s %10d %10.3f %14.3e %14.3e\n" m.case.name m.cycles m.seconds
        (stage_cells /. m.seconds)
        (float_of_int m.cycles /. m.seconds))
    results;
  let json =
    Json.Obj
      [
        ("benchmark", Json.String "sim_perf");
        ("quick", Json.Bool quick);
        ("host_cores", Json.Int host_cores);
        ( "cases",
          Json.List
            (List.map
               (fun m ->
                 Json.Obj
                   [
                     ("name", Json.String m.case.name);
                     ("cycles", Json.Int m.cycles);
                     ("wall_seconds", Json.Float m.seconds);
                     ("cells", Json.Int m.cells);
                     ("stages", Json.Int m.stages);
                     ( "stage_cells_per_second",
                       Json.Float (float_of_int (m.cells * m.stages) /. m.seconds) );
                     ("cycles_per_second", Json.Float (float_of_int m.cycles /. m.seconds));
                   ])
               results) );
      ]
  in
  (* Telemetry overhead: the same case with the counter registry off
     (default) and on (--profile). Both take the same schedule; on pays
     only for the probes' records, which windows and sleepers make in
     bulk. *)
  let overhead_case =
    if quick then jacobi_chain ~stages:8 ~shape:[ 64; 64 ] ~w:1
    else jacobi_chain ~stages:8 ~shape:[ 256; 256 ] ~w:1
  in
  let off = measure overhead_case in
  let on_config =
    Engine.Config.make ~tracing:(Engine.Config.tracing ~telemetry:true ()) ()
  in
  let on = measure ~config:on_config overhead_case in
  Printf.printf "\ntelemetry overhead (%s): off %.3fs, on %.3fs (%.2fx)\n"
    overhead_case.name off.seconds on.seconds (on.seconds /. off.seconds);
  let telemetry_json =
    Json.Obj
      [
        ("case", Json.String overhead_case.name);
        ("off_wall_seconds", Json.Float off.seconds);
        ("on_wall_seconds", Json.Float on.seconds);
        ("on_over_off", Json.Float (on.seconds /. off.seconds));
      ]
  in
  let json =
    match json with
    | Json.Obj fields -> Json.Obj (fields @ [ ("telemetry_overhead", telemetry_json) ])
    | other -> other
  in
  (* Fault-injection campaign: wall cost of the adversarial validation
     harness (Faults.campaign). Injected runs take the same schedule,
     but fault transitions end windows and jumps and no window runs
     during a burst, so the per-schedule overhead over the unperturbed
     baseline is the price of each robustness sample, and the pass rate
     must stay 1.0 (the latency-insensitivity claim itself). *)
  let fc_case =
    if quick then jacobi_chain ~stages:4 ~shape:[ 32; 32 ] ~w:1 else hdiff_small ~w:1
  in
  let fc_schedules = if quick then 5 else 25 in
  let fc_inputs = Interp.random_inputs fc_case.program in
  let fc_baseline = measure { fc_case with runs = 1 } in
  let t0 = Util.monotime () in
  let fc_report =
    match Faults.campaign ~inputs:fc_inputs ~schedules:fc_schedules fc_case.program with
    | Ok r -> r
    | Error d -> failwith ("fault campaign baseline failed: " ^ d.Diag.message)
  in
  let fc_seconds = Util.monotime () -. t0 in
  let fc_failures = List.length (Faults.failures fc_report) in
  let fc_pass_rate =
    float_of_int (fc_schedules - fc_failures) /. float_of_int fc_schedules
  in
  Printf.printf
    "\nfault campaign (%s): %d schedules in %.3fs (baseline %.3fs, %.2fx per schedule), pass rate %.2f\n"
    fc_case.name fc_schedules fc_seconds fc_baseline.seconds
    (fc_seconds /. float_of_int fc_schedules /. fc_baseline.seconds)
    fc_pass_rate;
  let fault_campaign_json =
    Json.Obj
      [
        ("case", Json.String fc_case.name);
        ("schedules", Json.Int fc_schedules);
        ("pass_rate", Json.Float fc_pass_rate);
        ("baseline_cycles", Json.Int fc_report.Faults.baseline_cycles);
        ("baseline_wall_seconds", Json.Float fc_baseline.seconds);
        ("campaign_wall_seconds", Json.Float fc_seconds);
        ( "overhead_per_schedule",
          Json.Float (fc_seconds /. float_of_int fc_schedules /. fc_baseline.seconds) );
      ]
  in
  let json =
    match json with
    | Json.Obj fields -> Json.Obj (fields @ [ ("fault_campaign", fault_campaign_json) ])
    | other -> other
  in
  (* Concurrent campaign: the same schedules fanned over the shared
     executor pool. Determinism is part of the contract — the report
     must be structurally identical to the serial one under any --jobs —
     and the speedup is recorded against the honest core count. *)
  let run_campaign jobs =
    let t0 = Util.monotime () in
    match Faults.campaign ~inputs:fc_inputs ~schedules:fc_schedules ~jobs fc_case.program with
    | Ok r -> (Util.monotime () -. t0, r)
    | Error d -> failwith ("parallel fault campaign baseline failed: " ^ d.Diag.message)
  in
  let cp_serial_s, cp_serial_r = run_campaign 1 in
  let cp_par_s, cp_par_r = run_campaign host_cores in
  if cp_serial_r <> cp_par_r then
    failwith "parallel campaign report differs from the serial one";
  Printf.printf
    "campaign --jobs %d (%s): %d schedules in %.3fs vs %.3fs serial (%.2fx on %d core(s)), reports identical\n"
    host_cores fc_case.name fc_schedules cp_par_s cp_serial_s (cp_serial_s /. cp_par_s)
    host_cores;
  let campaign_parallel_json =
    Json.Obj
      [
        ("case", Json.String fc_case.name);
        ("schedules", Json.Int fc_schedules);
        ("jobs", Json.Int host_cores);
        ("host_cores", Json.Int host_cores);
        ("serial_wall_seconds", Json.Float cp_serial_s);
        ("parallel_wall_seconds", Json.Float cp_par_s);
        ("speedup", Json.Float (cp_serial_s /. cp_par_s));
        ("speedup_valid", Json.Bool (host_cores > 1));
        ("identical_to_serial", Json.Bool true);
      ]
  in
  let json =
    match json with
    | Json.Obj fields -> Json.Obj (fields @ [ ("campaign_parallel", campaign_parallel_json) ])
    | other -> other
  in
  (* Expression optimizer: op counts and per-cell eval cost on the fused
     horizontal diffusion. Work flops (each shared node once) must be
     strictly below tree flops (every occurrence re-evaluated, the
     strategy the paper delegated to the vendor compiler's CSE). The
     widest fused body is then timed on the flat evaluator at 1 lane and
     at W lanes per dispatch: the gap is the dispatch cost W amortises. *)
  let eo_case = hdiff_small ~w:1 in
  let eo_fused, _ = Fusion.fuse_all eo_case.program in
  let eo_opt, eo_report = Opt.optimize_with_report eo_fused in
  let eo_counts = Op_count.of_program eo_opt in
  let eo_work = eo_counts.Op_count.work_flops_per_cell in
  let eo_tree = eo_counts.Op_count.tree_flops_per_cell in
  if eo_work >= eo_tree then
    failwith "expr_opt: fused hdiff work flops not below tree flops";
  let eo_prog =
    let flops (s : Stencil.t) = Expr.flop_count (Stencil.work_profile s) in
    let widest =
      List.fold_left
        (fun best s -> if flops s > flops best then s else best)
        (List.hd eo_opt.Program.stencils)
        eo_opt.Program.stencils
    in
    (* Every load its own slot, filled below as a flat prefix. *)
    Compile.lower ~lane:(fun _ -> Compile.Fixed) widest.Stencil.body
  in
  let eo_lanes = 4 in
  let eval_ns_per_cell ~lanes =
    let fr = Compile.frame eo_prog ~lanes and idx = [| 0 |] and out = Array.make lanes 0. in
    (* Load slot [k]'s cells sit at [k * lanes]; no fill binds them, and
       [exec] never writes a load slot, so they are written once. *)
    let cells = Compile.cells fr in
    let loads = Array.length (Compile.loads eo_prog) * lanes in
    for k = 0 to loads - 1 do
      cells.(k) <- 0.25 +. (float_of_int (k land 63) /. 7.)
    done;
    let cells_n = if quick then 100_000 else 2_000_000 in
    let sink = ref 0. in
    Compile.exec eo_prog ~idx ~lanes fr ~dst:out ~at:0;
    let t0 = Util.monotime () in
    for i = 0 to (cells_n / lanes) - 1 do
      cells.(i mod loads) <- cells.(i mod loads) +. 1e-12;
      Compile.exec eo_prog ~idx ~lanes fr ~dst:out ~at:0;
      sink := !sink +. out.(0)
    done;
    let dt = Util.monotime () -. t0 in
    if Float.is_nan !sink then Printf.printf "(unreachable)";
    dt /. float_of_int cells_n *. 1e9
  in
  let one_lane_ns = eval_ns_per_cell ~lanes:1 in
  let w_lanes_ns = eval_ns_per_cell ~lanes:eo_lanes in
  Printf.printf
    "\nexpr_opt (%s fused): ops %d -> %d, %d work vs %d tree flops/cell (%d saved); eval %.1f ns/cell at 1 lane vs %.1f at %d lanes (%.2fx)\n"
    eo_case.name eo_report.Opt.ops_before eo_report.Opt.ops_after eo_work eo_tree
    (eo_tree - eo_work) one_lane_ns w_lanes_ns eo_lanes (one_lane_ns /. w_lanes_ns);
  let expr_opt_json =
    Json.Obj
      [
        ("case", Json.String eo_case.name);
        ("ops_before", Json.Int eo_report.Opt.ops_before);
        ("ops_after", Json.Int eo_report.Opt.ops_after);
        ("shared_nodes", Json.Int eo_report.Opt.shared_nodes);
        ("work_flops_per_cell", Json.Int eo_work);
        ("tree_flops_per_cell", Json.Int eo_tree);
        ("flops_saved_per_cell", Json.Int (eo_tree - eo_work));
        ("lanes", Json.Int eo_lanes);
        ("eval_ns_per_cell_1_lane", Json.Float one_lane_ns);
        ("eval_ns_per_cell_w_lanes", Json.Float w_lanes_ns);
        ("lane_speedup", Json.Float (one_lane_ns /. w_lanes_ns));
      ]
  in
  let json =
    match json with
    | Json.Obj fields -> Json.Obj (fields @ [ ("expr_opt", expr_opt_json) ])
    | other -> other
  in
  (* Serve-mode cache: latency of one simulate request against a cold
     service vs the same request repeated against the warm cache. The
     warm path must execute zero passes (every artifact replayed), so
     its latency bounds the per-request overhead of the serve loop
     itself — the number that makes design-space exploration through
     `stencilflow serve` cheap. *)
  let sc_dir =
    if Sys.file_exists "examples/programs" then "examples/programs"
    else "../examples/programs"
  in
  let sc_request =
    Printf.sprintf
      {|{"verb": "simulate", "program_file": %S, "options": {"validate": false}}|}
      (Filename.concat sc_dir "horizontal_diffusion_small.json")
  in
  let sc_service = Service.create () in
  let sc_time () =
    let t0 = Util.monotime () in
    let resp, _ = Service.handle sc_service sc_request in
    let dt = Util.monotime () -. t0 in
    let executed =
      match Json.parse resp with
      | Ok json -> (
          match Option.bind (Json.member "passes" json) (Json.member "executed") with
          | Some (Json.Int n) -> n
          | _ -> failwith "service_cache: malformed response")
      | Error _ -> failwith "service_cache: response is not JSON"
    in
    (dt, executed)
  in
  let sc_cold_s, sc_cold_executed = sc_time () in
  if sc_cold_executed = 0 then failwith "service_cache: cold request hit the cache";
  let sc_warm_runs = if quick then 5 else 20 in
  let sc_warm =
    List.init sc_warm_runs (fun _ ->
        let dt, executed = sc_time () in
        if executed <> 0 then failwith "service_cache: warm request executed a pass";
        dt)
  in
  let sc_warm_s = List.nth (List.sort compare sc_warm) (sc_warm_runs / 2) in
  let sc_stats = Cache.stats (Service.cache sc_service) in
  let sc_hit_rate =
    float_of_int sc_stats.Cache.hits
    /. float_of_int (sc_stats.Cache.hits + sc_stats.Cache.misses)
  in
  Printf.printf
    "\nservice cache (hdiff-small simulate): cold %.3fs, warm %.6fs (%.0fx), hit rate %.2f\n"
    sc_cold_s sc_warm_s (sc_cold_s /. sc_warm_s) sc_hit_rate;
  let service_cache_json =
    Json.Obj
      [
        ("case", Json.String "hdiff-small-simulate");
        ("cold_wall_seconds", Json.Float sc_cold_s);
        ("warm_wall_seconds", Json.Float sc_warm_s);
        ("warm_runs", Json.Int sc_warm_runs);
        ("speedup", Json.Float (sc_cold_s /. sc_warm_s));
        ("warm_passes_executed", Json.Int 0);
        ("hits", Json.Int sc_stats.Cache.hits);
        ("misses", Json.Int sc_stats.Cache.misses);
        ("hit_rate", Json.Float sc_hit_rate);
      ]
  in
  let json =
    match json with
    | Json.Obj fields -> Json.Obj (fields @ [ ("service_cache", service_cache_json) ])
    | other -> other
  in
  (* Concurrent serve tier: the same stream of distinct simulate
     requests through a one-worker vs an N-worker server — the full
     serve loop over pipes, so admission, pool scheduling, the
     thread-safe cache and the writer are all on the measured path. A
     second stream with every request duplicated measures how much work
     single-flight deduplication absorbs. On a single-core host the
     speedup is recorded but flagged invalid. *)
  let svc_programs = if quick then 4 else 12 in
  let svc_shape = if quick then 48 else 96 in
  let svc_program i =
    Printf.sprintf
      {|{"name": "bench%d", "shape": [%d, %d], "inputs": {"x": {}}, "stencils": {"s": {"code": "x[0,0] * %d.0 + x[0,1]", "boundary": {"x": {"type": "constant", "value": 0.0}}}}, "outputs": ["s"]}|}
      i svc_shape svc_shape (i + 2)
  in
  let svc_request i =
    Printf.sprintf {|{"id": %d, "verb": "simulate", "program": %s, "options": {"validate": false}}|}
      i (svc_program i)
  in
  let run_serve ~serve_jobs reqs =
    let t = Service.create ~serve_jobs () in
    let req_r, req_w = Unix.pipe () in
    let resp_r, resp_w = Unix.pipe () in
    let ocq = Unix.out_channel_of_descr req_w in
    List.iter
      (fun l ->
        output_string ocq l;
        output_char ocq '\n')
      (reqs @ [ {|{"verb": "shutdown"}|} ]);
    close_out ocq;
    let t0 = Util.monotime () in
    let server =
      Domain.spawn (fun () ->
          let ic = Unix.in_channel_of_descr req_r in
          let oc = Unix.out_channel_of_descr resp_w in
          Service.serve_loop t ic oc;
          Out_channel.close oc;
          In_channel.close ic)
    in
    let ic = Unix.in_channel_of_descr resp_r in
    let rec read n =
      match In_channel.input_line ic with None -> n | Some _ -> read (n + 1)
    in
    let answered = read 0 in
    Domain.join server;
    In_channel.close ic;
    let dt = Util.monotime () -. t0 in
    if answered <> List.length reqs + 1 then failwith "service_concurrent: lost a response";
    (dt, Cache.stats (Service.cache t))
  in
  let svc_reqs = List.init svc_programs svc_request in
  let svc_jobs_n = if host_cores > 1 then min 4 host_cores else 4 in
  let svc_serial_s, _ = run_serve ~serve_jobs:1 svc_reqs in
  let svc_par_s, _ = run_serve ~serve_jobs:svc_jobs_n svc_reqs in
  let rps1 = float_of_int svc_programs /. svc_serial_s in
  let rpsn = float_of_int svc_programs /. svc_par_s in
  let svc_dup_reqs = List.concat_map (fun r -> [ r; r ]) svc_reqs in
  let _, dup_stats = run_serve ~serve_jobs:svc_jobs_n svc_dup_reqs in
  let lookups = dup_stats.Cache.hits + dup_stats.Cache.misses + dup_stats.Cache.joined in
  let dedup_ratio =
    if lookups = 0 then 0. else float_of_int dup_stats.Cache.joined /. float_of_int lookups
  in
  Printf.printf
    "\n\
     service concurrent (%d simulate requests): jobs=1 %.2f req/s, jobs=%d %.2f req/s \
     (%.2fx)%s\n\
     single-flight: %d joined of %d lookups (ratio %.2f) on the duplicated stream\n"
    svc_programs rps1 svc_jobs_n rpsn (rpsn /. rps1)
    (if host_cores > 1 then "" else " [1-core host: speedup not meaningful]")
    dup_stats.Cache.joined lookups dedup_ratio;
  let service_concurrent_json =
    Json.Obj
      [
        ("requests", Json.Int svc_programs);
        ("jobs", Json.Int svc_jobs_n);
        ("serial_wall_seconds", Json.Float svc_serial_s);
        ("parallel_wall_seconds", Json.Float svc_par_s);
        ("requests_per_second_jobs1", Json.Float rps1);
        ("requests_per_second_jobsN", Json.Float rpsn);
        ("speedup", Json.Float (rpsn /. rps1));
        ("host_cores", Json.Int host_cores);
        ("speedup_valid", Json.Bool (host_cores > 1));
        ("singleflight_joined", Json.Int dup_stats.Cache.joined);
        ("singleflight_lookups", Json.Int lookups);
        ("singleflight_dedup_ratio", Json.Float dedup_ratio);
      ]
  in
  let json =
    match json with
    | Json.Obj fields ->
        Json.Obj (fields @ [ ("service_concurrent", service_concurrent_json) ])
    | other -> other
  in
  (* Simulation over its oracle: both sides start from one prepared
     program (Engine.prepare_program: check, analysis, lowering), timed
     once per case. Engine.run_prepared (build and cycle loop) runs
     against the reference interpreter (Interp.prepare of the same
     plan), on the same inputs. The two alternate in one process, so
     host drift moves both. A validated run overlaps them on two cores,
     so the simulation is its critical path, and the ratio is what
     simulating costs over computing the answer. *)
  let oo_runs = if quick then 5 else 60 in
  let oo_cases =
    [
      ("jacobi2d-64stage-128x128-w1", Iterative.chain ~shape:[ 128; 128 ] Iterative.Jacobi2d ~length:64);
      ( "hdiff-fused-8x64x64-w4",
        Opt.optimize (fst (Fusion.fuse_all (Hdiff.program ~shape:[ 8; 64; 64 ] ~vector_width:4 ()))) );
    ]
  in
  let over_oracle (name, p) =
    let inputs = Interp.random_inputs p in
    let t0 = Util.monotime () in
    let prepared = Engine.prepare_program p in
    let prepare_s = Util.monotime () -. t0 in
    (* Load runs copied and bound in place by one run of each side: the
       units' taps after a simulation, and the oracle's stage by stage. *)
    let add r (c, b) = r := (fst !r + c, snd !r + b) in
    let sim_runs = ref (0, 0) and oracle_runs = ref (0, 0) in
    ignore
      (Engine.Internal.simulate ~config:Engine.Config.default ~placement:(fun _ -> 0) ~inputs prepared
         ~drive:(fun system injector finished ->
           let s = Engine.Internal.scheduler ~config:Engine.Config.default ?injector ~finished system in
           s.Engine.Internal.advance ~limit:max_int;
           Array.iter
             (function Engine.Internal.Cunit u -> add sim_runs (Sf_sim.Stencil_unit.load_runs u) | _ -> ())
             system.Engine.Internal.comps;
           (s.now (), s.deadlocked (), s.samples ())));
    ignore (Interp.prepare ~load_runs:(add oracle_runs) prepared.Engine.plan ~inputs ());
    let stage_cells = float_of_int (Program.cells p * List.length p.Program.stencils) in
    let per_cell (c, b) = (float_of_int c /. stage_cells, float_of_int b /. stage_cells) in
    let oracle = Interp.prepare prepared.Engine.plan ~inputs in
    let sim = Array.make oo_runs 0. and reference = Array.make oo_runs 0. in
    for i = 0 to oo_runs - 1 do
      let t0 = Util.monotime () in
      (match Engine.run_prepared ~inputs prepared with
      | Ok _ -> ()
      | Error d -> failwith (name ^ ": " ^ Diag.to_string d));
      let t1 = Util.monotime () in
      ignore (Sys.opaque_identity (oracle ()));
      sim.(i) <- t1 -. t0;
      reference.(i) <- Util.monotime () -. t1
    done;
    Array.sort compare sim;
    Array.sort compare reference;
    let median a = a.(Array.length a / 2) in
    Printf.printf
      "  %-30s prepare %7.3f ms once; sim %7.3f / %7.3f ms, oracle %7.3f / %7.3f ms, ratio %.2f / \
       %.2f\n"
      name (prepare_s *. 1e3) (median sim *. 1e3) (sim.(0) *. 1e3) (median reference *. 1e3)
      (reference.(0) *. 1e3) (median sim /. median reference) (sim.(0) /. reference.(0));
    let sc, sb = per_cell !sim_runs and oc, ob = per_cell !oracle_runs in
    Printf.printf "  %-30s load runs per stage-cell copied / bound: sim %.4f / %.4f, oracle %.4f / %.4f\n"
      "" sc sb oc ob;
    Json.Obj
      [
        ("case", Json.String name);
        ("runs", Json.Int oo_runs);
        ("prepare_s", Json.Float prepare_s);
        ("sim_median_s", Json.Float (median sim));
        ("sim_min_s", Json.Float sim.(0));
        ("oracle_median_s", Json.Float (median reference));
        ("oracle_min_s", Json.Float reference.(0));
        ("median_ratio", Json.Float (median sim /. median reference));
        ("min_ratio", Json.Float (sim.(0) /. reference.(0)));
        ("sim_runs_copied", Json.Int (fst !sim_runs));
        ("sim_runs_bound", Json.Int (snd !sim_runs));
        ("oracle_runs_copied", Json.Int (fst !oracle_runs));
        ("oracle_runs_bound", Json.Int (snd !oracle_runs));
      ]
  in
  Printf.printf "\nsimulation over oracle (%d alternating runs; median / minimum):\n" oo_runs;
  let over_oracle_json = Json.List (List.map over_oracle oo_cases) in
  let json =
    match json with
    | Json.Obj fields -> Json.Obj (fields @ [ ("over_oracle", over_oracle_json) ])
    | other -> other
  in
  (* Service chaos: the hardened serve tier under seeded adversity —
     injected worker exceptions, slow passes, malformed lines and blob
     corruption — timed end to end. The campaign is a correctness gate
     (any violated invariant fails the bench) and its wall clock tracks
     how much the hardening costs per perturbed seed. *)
  let chaos_dir =
    if Sys.file_exists "examples/programs" then "examples/programs"
    else "../examples/programs"
  in
  let chaos_programs =
    List.map (Filename.concat chaos_dir) [ "diamond.json"; "laplace2d.json" ]
  in
  let chaos_seeds = List.init (if quick then 5 else 25) (fun i -> i + 1) in
  let chaos_requests = if quick then 4 else 6 in
  let ch0 = Util.monotime () in
  let chaos_report =
    Chaos.campaign ~seeds:chaos_seeds ~requests:chaos_requests
      ~programs:chaos_programs ()
  in
  let chaos_s = Util.monotime () -. ch0 in
  if not (Chaos.passed chaos_report) then begin
    Format.printf "%a@." Chaos.pp_report chaos_report;
    failwith "service_chaos: campaign violated an invariant"
  end;
  let chaos_total f =
    List.fold_left (fun acc (r : Chaos.seed_report) -> acc + f r) 0
      chaos_report.Chaos.seed_reports
  in
  let chaos_raises = chaos_total (fun r -> r.Chaos.raises) in
  let chaos_malformed = chaos_total (fun r -> r.Chaos.malformed) in
  let chaos_slows = chaos_total (fun r -> r.Chaos.slows) in
  let chaos_corrupted = chaos_total (fun r -> r.Chaos.corrupted_blobs) in
  Printf.printf
    "\n\
     service chaos (%d seeds x %d requests): all invariants held in %.2fs (%.3fs/seed)\n\
     injected: %d raise(s), %d malformed line(s), %d slow(s), %d corrupted blob(s)\n"
    chaos_report.Chaos.seeds chaos_requests chaos_s
    (chaos_s /. float_of_int (max 1 chaos_report.Chaos.seeds))
    chaos_raises chaos_malformed chaos_slows chaos_corrupted;
  let service_chaos_json =
    Json.Obj
      [
        ("seeds", Json.Int chaos_report.Chaos.seeds);
        ("requests_per_seed", Json.Int chaos_requests);
        ("failed_seeds", Json.Int chaos_report.Chaos.failed);
        ("wall_seconds", Json.Float chaos_s);
        ( "seconds_per_seed",
          Json.Float (chaos_s /. float_of_int (max 1 chaos_report.Chaos.seeds)) );
        ("injected_raises", Json.Int chaos_raises);
        ("injected_malformed", Json.Int chaos_malformed);
        ("injected_slows", Json.Int chaos_slows);
        ("corrupted_blobs", Json.Int chaos_corrupted);
      ]
  in
  let json =
    match json with
    | Json.Obj fields -> Json.Obj (fields @ [ ("service_chaos", service_chaos_json) ])
    | other -> other
  in
  if no_json then Printf.printf "\n--no-json: skipped BENCH_sim.json\n"
  else begin
    let out = if Sys.file_exists "BENCH_sim.json" || Sys.file_exists "dune-project" then "BENCH_sim.json" else "../BENCH_sim.json" in
    let oc = open_out out in
    output_string oc (Json.to_string json);
    output_string oc "\n";
    close_out oc;
    Printf.printf "\nwrote %s\n" out
  end
