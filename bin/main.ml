(* StencilFlow command-line interface: analysis, simulation, partitioning
   and code generation for JSON stencil-program descriptions.

   The analyze/simulate/codegen commands execute through the instrumented
   pass manager (lib/toolchain): --trace-passes prints per-pass timings
   and artifact counters, --dump-ir writes every intermediate artifact to
   a directory, and failures are structured diagnostics with stable codes
   and exit codes (see docs/PIPELINE.md). *)
open Stencilflow
open Cmdliner

let program_arg =
  let doc = "JSON stencil program description (see README for the format)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM.json" ~doc)

let vector_width_arg =
  let doc = "Override the program's vectorization width W (Sec. IV-C)." in
  Arg.(value & opt (some int) None & info [ "w"; "vector-width" ] ~docv:"W" ~doc)

(* The flags shared by every pipeline-driving command (analyze, simulate,
   codegen, serve), factored into one record + one Cmdliner term so the
   commands cannot drift apart. *)
module Common = struct
  type t = {
    fuse : bool;
    optimize : bool;
    trace_passes : bool;
    dump_ir : string option;
    diag_json : bool;
    cache_dir : string option;
  }

  let fuse_arg =
    let doc = "Apply aggressive stencil fusion before mapping (Sec. V-B)." in
    Arg.(value & flag & info [ "fuse" ] ~doc)

  let optimize_arg =
    let doc =
      "Run the expression optimiser (constant folding + CSE over the hash-consed \
       DAG) after the frontend; its op counters appear in $(b,--trace-passes)."
    in
    Arg.(value & flag & info [ "optimize" ] ~doc)

  let trace_passes_arg =
    let doc =
      "Print per-pass wall-clock timings and artifact counters; passes replayed \
       from the cache are marked $(b,[cached]) and a hit/miss summary follows."
    in
    Arg.(value & flag & info [ "trace-passes" ] ~doc)

  let dump_ir_arg =
    let doc = "Dump every intermediate artifact into $(docv)/NN-passname/ after each pass." in
    Arg.(value & opt (some string) None & info [ "dump-ir" ] ~docv:"DIR" ~doc)

  let diag_json_arg =
    let doc = "Report diagnostics as JSON on stdout instead of text on stderr." in
    Arg.(value & flag & info [ "diag-json" ] ~doc)

  let cache_dir_arg =
    let doc =
      "Back the content-addressed pass cache with an on-disk store rooted at \
       $(docv): unchanged passes are replayed from earlier invocations instead \
       of re-executed (keys cover the program content, device, configuration \
       and pass options; see docs/PIPELINE.md)."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

  let term =
    let make fuse optimize trace_passes dump_ir diag_json cache_dir =
      { fuse; optimize; trace_passes; dump_ir; diag_json; cache_dir }
    in
    Term.(
      const make $ fuse_arg $ optimize_arg $ trace_passes_arg $ dump_ir_arg $ diag_json_arg
      $ cache_dir_arg)
end

let remote_arg =
  let doc =
    "Execute the request through a freshly spawned $(b,stencilflow serve) child \
     process over its JSON protocol and print the raw response line (with \
     $(b,--cache-dir), repeated invocations hit the shared on-disk cache)."
  in
  Arg.(value & flag & info [ "remote" ] ~doc)

let seed_arg =
  Arg.(value & opt int Request.default_options.seed
       & info [ "seed" ] ~doc:"Random seed for generated input data.")

let fault_seed_arg =
  Arg.(value & opt int 1
       & info [ "fault-seed" ] ~docv:"N"
           ~doc:"Seed of the injected fault timeline (with $(b,--inject)). The whole \
                 perturbation sequence is a pure function of (seed, plan).")

(* --jobs of validate-depths, which fans independent simulations over
   the executor pool. *)
let jobs_arg =
  let doc =
    "Hardware threads to use: campaign schedules and probe arms run \
     that many independent simulations concurrently. $(b,0) (the default) means \
     auto-detect ($(b,Domain.recommended_domain_count)); $(b,1) forces fully \
     serial execution. Results are byte-identical for every value."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs jobs = if jobs > 0 then jobs else Executor.default_jobs ()

(* Diagnostics go to stderr as "stencilflow: <file:line:col:> severity[CODE]:
   message" lines (or as one JSON object on stdout with --diag-json); the
   process exit code is derived from the first error's code layer. *)
let emit_diags ~json ds =
  if ds <> [] then
    if json then print_endline (Json.to_string (Diag.list_to_json ds))
    else List.iter (fun d -> Format.eprintf "stencilflow: %s@." (Diag.to_string d)) ds

let exit_diags ~json ds =
  emit_diags ~json ds;
  exit (Diag.exit_code ds)

(* The request a pipeline command line describes: the same value runs
   in-process, travels over --remote, or is what serve decodes. *)
let request ?(fuse = false) ?(optimize = false) ?devices ?seed ?max_cycles verb path width =
  let d = Request.default_options in
  let seed = Option.value seed ~default:d.Request.seed in
  Request.make verb (Request.File path)
    ~options:{ d with width; fuse; optimize; devices; seed; max_cycles }

(* Run a request in-process; on failure print the executed prefix's
   trace (if requested) and the diagnostics, and exit with the stable
   code. On success, warnings are reported but do not change the
   caller's flow. With --cache-dir, passes run against a disk-backed
   content-addressed cache and --trace-passes appends its hit/miss
   summary. *)
let run_local ?config ~(common : Common.t) request =
  let hooks =
    match common.Common.dump_ir with
    | Some dir -> Passes.dump_hook ~dir
    | None -> Pass_manager.no_hooks
  in
  let cache =
    Option.map
      (fun dir -> Cache.with_store (Cache.create ()) (Store.open_ dir))
      common.Common.cache_dir
  in
  let emit_trace trace =
    if common.Common.trace_passes then begin
      Format.printf "%a" Pass_manager.pp_trace trace;
      Option.iter
        (fun c ->
          let s = Cache.stats c in
          Format.printf "cache: %d hit(s), %d miss(es), %d stale@." (s.Cache.hits + s.Cache.joined)
            s.Cache.misses s.Cache.stale)
        cache
    end
  in
  match Request.run ?config ~hooks ?cache request with
  | Ok (ctx, trace) ->
      emit_trace trace;
      ctx
  | Error (ds, trace) ->
      emit_trace trace;
      exit_diags ~json:common.Common.diag_json ds

(* --remote: spawn a serve child, send the request this command would
   have run locally, print the raw response line, and exit 0 when the
   response reports ok. Flags that only shape a local run (rendering,
   instrumentation, fault injection) cannot travel with the request and are
   rejected up front. A child that dies mid-stream (no response line, or
   a broken request pipe) is retried a bounded number of times with
   backoff — each retry spawns a fresh child. *)
let remote_attempts = 3

let remote_eval ~(common : Common.t) ?(local_only = []) request =
  let local_only =
    [ ("--dump-ir", common.Common.dump_ir <> None); ("--trace-passes", common.Common.trace_passes) ]
    @ local_only
  in
  (match List.filter_map (fun (flag, set) -> if set then Some flag else None) local_only with
  | [] -> ()
  | flags ->
      exit_diags ~json:common.Common.diag_json
        [
          Diag.errorf ~code:Diag.Code.format "--remote cannot carry local-only flag(s): %s"
            (String.concat ", " flags);
        ]);
  (* A dead child must surface as EOF/EPIPE on the pipes, not kill this
     process with an unhandled SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let request = Json.to_string ~minify:true (Request.to_json request) in
  let exe = Sys.executable_name in
  let argv =
    Array.of_list
      ([ exe; "serve" ]
      @ match common.Common.cache_dir with Some d -> [ "--cache-dir"; d ] | None -> [])
  in
  let attempt () =
    let ic, oc = Unix.open_process_args exe argv in
    let resp =
      (* A child dying before (or while) reading the request raises
         Sys_error (EPIPE) on the write; a child dying before answering
         yields EOF (None). Both are the same failure: no response. *)
      try
        output_string oc (request ^ "\n");
        flush oc;
        In_channel.input_line ic
      with Sys_error _ -> None
    in
    ignore (Unix.close_process (ic, oc));
    resp
  in
  let rec go n =
    match attempt () with
    | Some line -> line
    | None when n < remote_attempts ->
        (* Exponential backoff: 50ms, 100ms, ... between fresh children. *)
        Unix.sleepf (0.05 *. float_of_int (1 lsl (n - 1)));
        go (n + 1)
    | None ->
        exit_diags ~json:common.Common.diag_json
          [
            Diag.errorf ~code:Diag.Code.internal
              "serve child produced no response (%d attempt(s))" remote_attempts;
          ]
  in
  let line = go 1 in
  print_endline line;
  exit
    (match Result.map (Json.member "ok") (Json.parse line) with
    | Ok (Some (Json.Bool true)) -> 0
    | _ -> 1)

(* The check of the program after a request's frontend passes (load,
   vectorize, fuse) — how the commands that render a program obtain it. *)
let load ?fuse path width =
  match Request.frontend (request ?fuse `Analyze path width) with
  | Ok ctx -> Option.get ctx.Ctx.program
  | Error ds -> exit_diags ~json:false ds

let analyze_cmd =
  let run path width ({ Common.fuse; optimize; _ } as common) remote =
    let request = request `Analyze path width ~fuse ~optimize in
    if remote then remote_eval ~common request
    else begin
      let ctx = run_local ~common request in
      let p = Program.Checked.program (Option.get ctx.Ctx.program)
      and analysis = Option.get ctx.Ctx.analysis in
      Format.printf "%a@." Delay_buffer.pp analysis;
      Format.printf "%a@." Op_count.pp (Op_count.of_program p);
      Format.printf "arithmetic intensity: %.3f Op/operand, %.3f Op/B@."
        (Op_count.ai_ops_per_operand p) (Op_count.ai_ops_per_byte p);
      Format.printf "expected cycles (Eq. 1): %d@." (Runtime_model.analyzed_cycles p analysis);
      let usage = Resource.of_analysis analysis in
      Format.printf "estimated resources: %a@." Resource.pp usage;
      let a, f, m, d = Resource.utilization Device.stratix10 usage in
      Format.printf "utilization on %s: ALM %.1f%%, FF %.1f%%, M20K %.1f%%, DSP %.1f%%@."
        Device.stratix10.Device.name (100. *. a) (100. *. f) (100. *. m) (100. *. d);
      exit_diags ~json:common.Common.diag_json ctx.Ctx.diags
    end
  in
  let doc = "Run the buffering, latency, and resource analyses on a program." in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ program_arg $ vector_width_arg $ Common.term $ remote_arg)

let simulate_cmd =
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE.csv"
             ~doc:"Sample channel occupancies every 16 cycles into a CSV file.")
  in
  let profile_arg =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Run the simulator instrumented and print a stall-attribution table \
                   ranking components by blocked cycles.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE.json"
             ~doc:"Write a Chrome trace_event JSON file (open in chrome://tracing or \
                   Perfetto) with per-component activity, stall spans and channel \
                   occupancy counters.")
  in
  let counters_json_arg =
    Arg.(value & flag
         & info [ "counters-json" ]
             ~doc:"Print the telemetry counter registry (per-component busy/stalled \
                   cycles, stalls by cause, pushes, pops, bytes; per-channel high-water \
                   marks) as JSON on stdout.")
  in
  let devices_arg =
    Arg.(value & opt (some int) None
         & info [ "devices" ] ~docv:"N"
             ~doc:"Force the mapping onto $(docv) devices (even contiguous chunks of \
                   the topological order) instead of the resource-driven greedy \
                   partitioner.")
  in
  let inject_arg =
    Arg.(value & opt (some string) None
         & info [ "inject" ] ~docv:"PLAN"
             ~doc:"Inject deterministic timing faults: $(b,default), $(b,none), or a \
                   semicolon-separated plan (e.g. \
                   'link-stall:gap=100,dur=8;unit-hiccup\\@a:gap=50,dur=4'; see \
                   docs/SIMULATOR.md). Faults perturb timing, never values.")
  in
  let max_cycles_arg =
    Arg.(value & opt (some int) None
         & info [ "max-cycles" ] ~docv:"N"
             ~doc:"Abort the simulation after $(docv) cycles with a coded SF0703 \
                   timeout; the budget is echoed in the diagnostic's notes.")
  in
  let run path width ({ Common.fuse; optimize; _ } as common) remote seed trace profile
      trace_out counters_json devices inject fault_seed max_cycles =
    let request = request `Simulate path width ~fuse ~optimize ?devices ~seed ?max_cycles in
    if remote then
      remote_eval ~common request
        ~local_only:
          [
            ("--profile", profile);
            ("--trace", trace <> None);
            ("--trace-out", trace_out <> None);
            ("--counters-json", counters_json);
            ("--inject", inject <> None);
          ]
    else begin
    let diag_json = common.Common.diag_json in
    let telemetry = profile || trace_out <> None || counters_json in
    let trace_interval =
      if trace <> None || trace_out <> None then Some 16 else None
    in
    let fault_plan =
      match inject with
      | None -> None
      | Some spec -> (
          match Fault_plan.of_string spec with
          | Ok pl -> if pl = Fault_plan.none then None else Some pl
          | Error m ->
              exit_diags ~json:diag_json
                [ Diag.errorf ~code:Diag.Code.sim_config "bad --inject plan: %s" m ])
    in
    let config =
      Engine.Config.make
        ~tracing:(Engine.Config.tracing ?trace_interval ~telemetry ())
        ~faults:(Engine.Config.faults ?plan:fault_plan ~seed:fault_seed ())
        ()
    in
    let ctx = run_local ~config ~common request in
    let report = report_of_ctx ctx in
    Format.printf "%a@." pp_report report;
    (* The failed-run report is still available for profiling: the engine
       harvests telemetry on deadlock and timeout too. *)
    (match report.simulation with
    | Some (Ok stats) ->
        let t = stats.Engine.telemetry in
        if profile then Format.printf "%a@." Telemetry.pp_attribution t;
        if counters_json then print_endline (Json.to_string (Telemetry.counters_json t));
        Option.iter
          (fun file ->
            Out_channel.with_open_text file (fun oc ->
                output_string oc (Json.to_string (Telemetry.trace_events_json t)));
            Format.printf "wrote %s@." file)
          trace_out;
        (match (trace, t.Telemetry.samples) with
        | Some file, (((_, first) :: _) as samples) ->
            Out_channel.with_open_text file (fun oc ->
                output_string oc ("cycle," ^ String.concat "," (List.map fst first) ^ "\n");
                List.iter
                  (fun (cycle, occupancies) ->
                    output_string oc
                      (string_of_int cycle ^ ","
                      ^ String.concat "," (List.map (fun (_, o) -> string_of_int o) occupancies)
                      ^ "\n"))
                  samples);
            Format.printf "wrote %s@." file
        | _ -> ())
    | _ -> ());
    (if diag_json then emit_diags ~json:true ctx.Ctx.diags);
    exit (Diag.exit_code ctx.Ctx.diags)
    end
  in
  let doc =
    "Execute the program on the cycle-level spatial simulator and validate against the \
     sequential reference interpreter."
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ program_arg $ vector_width_arg $ Common.term $ remote_arg $ seed_arg
      $ trace_arg $ profile_arg $ trace_out_arg $ counters_json_arg $ devices_arg $ inject_arg $ fault_seed_arg $ max_cycles_arg)

let validate_depths_cmd =
  let campaign_arg =
    Arg.(value & opt int 25
         & info [ "campaign" ] ~docv:"N"
             ~doc:"Number of seeded fault schedules to run against the analysed depths.")
  in
  let inject_arg =
    Arg.(value & opt string "default"
         & info [ "inject" ] ~docv:"PLAN"
             ~doc:"Fault plan driving the campaign and the under-provisioning probe \
                   (same syntax as $(b,simulate --inject)).")
  in
  let run path width campaign_n seed inject fault_seed jobs =
    let jobs = resolve_jobs jobs in
    (* No fusion: collapsing the DAG can erase the very join edges whose
       delay buffers the campaign is exercising. *)
    let checked = load path width in
    let plan =
      match Fault_plan.of_string inject with
      | Ok pl -> pl
      | Error m ->
          exit_diags ~json:false
            [ Diag.errorf ~code:Diag.Code.sim_config "bad --inject plan: %s" m ]
    in
    let inputs = Interp.random_inputs ~seed (Program.Checked.program checked) in
    let config = Engine.Config.default in
    (* One analysis and one lowering serve the campaign and the probe. *)
    let prepared = Engine.prepare (Delay_buffer.of_checked ~config:config.latency checked) in
    (match Faults.campaign_prepared ~config ~inputs ~plan ~schedules:campaign_n ~jobs prepared with
    | Error d -> exit_diags ~json:false [ d ]
    | Ok report ->
        let failed = Faults.failures report in
        Format.printf
          "campaign: %d/%d seeded schedules bit-identical to the unperturbed run (%d cycles)@."
          (campaign_n - List.length failed)
          campaign_n report.Faults.baseline_cycles;
        List.iter
          (fun (r, d) ->
            Format.printf "  seed %d FAILED: %s@." r.Faults.seed (Diag.to_string d))
          failed;
        let probe_ok =
          match Faults.probe_tightest ~config ~inputs ~plan ~fault_seed ~jobs prepared with
          | None ->
              Format.printf
                "no positive-depth delay buffer: nothing to under-provision@.";
              true
          | Some probe ->
              let src, dst = probe.Faults.edge in
              let slack = config.Engine.Config.channel_slack in
              Format.printf
                "tightest delay-buffer edge: %s->%s (analysed depth %d + slack %d words)@."
                src dst probe.Faults.analysed_depth slack;
              (match probe.Faults.tight_capacity with
              | None ->
                  Format.printf
                    "  completes even at capacity 1: edge is not load-bearing (no \
                     blocking cycle forms through it)@.";
                  true
              | Some tight ->
                  Format.printf
                    "  under-provisioned to capacity %d: deadlocks; capacity %d \
                     completes (margin %d words below analysed provisioning)@."
                    tight (tight + 1)
                    (probe.Faults.analysed_depth + slack - tight);
                  (match probe.Faults.probe_diag with
                  | None ->
                      Format.printf "  probe run unexpectedly completed@.";
                      false
                  | Some d ->
                      Format.printf "  error[%s]: %s@." d.Diag.code d.Diag.message;
                      List.iter
                        (fun note ->
                          if
                            String.starts_with ~prefix:"fault-attribution:" note
                            || String.starts_with ~prefix:"injected " note
                          then Format.printf "  %s@." note)
                        d.Diag.notes;
                      String.equal d.Diag.code Diag.Code.sim_deadlock))
        in
        if failed = [] && probe_ok then exit 0
        else
          exit
            (Diag.exit_code
               [ Diag.errorf ~code:Diag.Code.sim_deadlock "depth validation failed" ]))
  in
  let doc =
    "Adversarially validate the analysed delay-buffer depths: run a seeded fault-injection \
     campaign expecting bit-identical outputs, then under-provision the tightest edge to \
     the largest capacity that deadlocks, expecting a deterministic SF0701 with \
     fault-attribution notes."
  in
  Cmd.v (Cmd.info "validate-depths" ~doc)
    Term.(
      const run $ program_arg $ vector_width_arg $ campaign_arg $ seed_arg $ inject_arg
      $ fault_seed_arg $ jobs_arg)

let codegen_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR"
           ~doc:"Write kernel files into this directory instead of stdout.")
  in
  let run path width ({ Common.fuse; optimize; _ } as common) remote out =
    let request = request `Codegen path width ~fuse ~optimize in
    if remote then remote_eval ~common request ~local_only:[ ("-o", out <> None) ]
    else begin
      let ctx = run_local ~common request in
      List.iter
        (fun (name, source) ->
          match out with
          | None -> Format.printf "// ===== %s =====@.%s@." name source
          | Some dir ->
              let file = Filename.concat dir name in
              Out_channel.with_open_text file (fun oc -> output_string oc source);
              Format.printf "wrote %s@." file)
        (List.map (fun (a : Opencl.artifact) -> (a.Opencl.filename, a.Opencl.source))
           ctx.Ctx.kernels
        @ [ ("host.c", Option.get ctx.Ctx.host_source) ]);
      exit_diags ~json:common.Common.diag_json ctx.Ctx.diags
    end
  in
  let doc = "Emit Intel-FPGA-style annotated OpenCL kernels and host code." in
  Cmd.v (Cmd.info "codegen" ~doc)
    Term.(const run $ program_arg $ vector_width_arg $ Common.term $ remote_arg $ out_arg)

let partition_cmd =
  let devices_arg =
    Arg.(value & opt int 8 & info [ "max-devices" ] ~doc:"Maximum devices in the chain.")
  in
  let run path width fuse max_devices =
    let checked = load ~fuse path width in
    let p = Program.Checked.program checked in
    match Partition.greedy ~max_devices ~device:Device.stratix10 checked with
    | Error d ->
        Format.eprintf "partitioning failed: %s@." d.Diag.message;
        exit (Diag.exit_code [ d ])
    | Ok pt ->
        Format.printf "%a@." Partition.pp pt;
        List.iteri
          (fun d usage ->
            let a, _, m, s = Resource.utilization Device.stratix10 usage in
            Format.printf "device %d: %a (ALM %.1f%%, M20K %.1f%%, DSP %.1f%%)@." d Resource.pp
              usage (100. *. a) (100. *. m) (100. *. s))
          pt.Partition.per_device_usage;
        Format.printf "network feasible at W=%d: %b@." p.Program.vector_width
          (Partition.network_feasible p pt ~device:Device.stratix10)
  in
  let doc = "Partition a program across a chain of devices (Sec. III-B)." in
  Cmd.v (Cmd.info "partition" ~doc)
    Term.(const run $ program_arg $ vector_width_arg $ Common.fuse_arg $ devices_arg)

let dot_cmd =
  let run path width fuse =
    print_string (Dot.of_program (Program.Checked.program (load ~fuse path width)))
  in
  let doc = "Print the stencil DAG in Graphviz format with delay-buffer labels." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ program_arg $ vector_width_arg $ Common.fuse_arg)

(* fuse and optimize: the loaded program through the request frontend
   with fusion and, for optimize, fold-cse; summary lines from the ctx,
   then the program. optimize also probes the result against the loaded
   program on interior cells, where a mismatch is SF0801. *)
let transform_cmd ~optimize name doc =
  let run path width =
    let p = Program.Checked.program (load path width) in
    let request =
      Request.make `Analyze (Request.Program p)
        ~options:{ Request.default_options with fuse = true; optimize }
    in
    let ctx =
      match Request.frontend request with Ok ctx -> ctx | Error ds -> exit_diags ~json:false ds
    in
    let result = Program.Checked.program (Option.get ctx.Ctx.program)
    and report = Option.get ctx.Ctx.fusion in
    Format.printf "fused %d stencils into %d:@." report.Fusion.stencils_before
      report.Fusion.stencils_after;
    List.iter
      (fun (u, v) -> Format.printf "  %s into %s@." u v)
      report.Fusion.fused_pairs;
    if optimize then begin
      List.iter
        (fun (k, n) -> if String.starts_with ~prefix:"opt-" k then Format.printf "%s: %d@." k n)
        (Ctx.counters ctx);
      let applied =
        List.filter_map
          (fun (pass : Pass_manager.pass) ->
            if pass.Pass_manager.kind = Pass_manager.Transform then Some pass.Pass_manager.name
            else None)
          (Request.passes request)
      in
      match verify_interior ~original:p ~applied result with
      | Error d -> exit_diags ~json:false [ d ]
      | Ok (Some true) -> Format.printf "interior probe check: verified@."
      | Ok _ ->
          Format.printf "interior probe check: skipped (over %d cells or no interior cell)@."
            Fusion.max_probe_cells
    end;
    print_string (Program_json.to_string result)
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ program_arg $ vector_width_arg)

let fuse_cmd =
  transform_cmd ~optimize:false "fuse"
    "Apply aggressive stencil fusion and print the resulting program."

let optimize_cmd =
  transform_cmd ~optimize:true "optimize"
    "Fuse, fold constants and eliminate common subexpressions, check the result against \
     the input on interior probe cells, and print the optimized program."

let tile_cmd =
  let tile_arg =
    Arg.(required & opt (some string) None
         & info [ "tile" ] ~docv:"T1,T2,..."
             ~doc:"Tile extents per axis, comma separated (Sec. IX-D).")
  in
  let run path width tile =
    let checked = load path width in
    let p = Program.Checked.program checked in
    let tile_shape =
      try List.map int_of_string (String.split_on_char ',' tile)
      with Failure _ ->
        Format.eprintf "stencilflow: malformed tile %s@." tile;
        exit 1
    in
    let plan = Tiling.plan p ~tile_shape in
    Format.printf "%a@." Tiling.pp plan;
    Format.printf "per-tile on-chip buffering: %d elements (untiled: %d)@."
      (Tiling.buffer_elements_per_tile plan)
      (Delay_buffer.total_fast_memory_elements (Delay_buffer.of_checked checked));
    if Program.cells p <= 65536 then begin
      let inputs = Interp.random_inputs p in
      let untiled = Interp.run p ~inputs in
      let tiled = Tiling.run_tiled plan ~inputs in
      let exact =
        List.for_all
          (fun (name, (r : Interp.result)) ->
            Tensor.max_abs_diff r.Interp.tensor (List.assoc name tiled) < 1e-9)
          untiled
      in
      Format.printf "tiled execution equals untiled: %b@." exact
    end
  in
  let doc = "Plan spatial tiling: halo, redundancy, per-tile buffers; verify on small domains." in
  Cmd.v (Cmd.info "tile" ~doc) Term.(const run $ program_arg $ vector_width_arg $ tile_arg)

let autotune_cmd =
  let devices_arg =
    Arg.(value & opt int 1 & info [ "devices" ] ~doc:"Devices in the chain (network bound).")
  in
  let run path devices =
    let p = Program.Checked.program (load path None) in
    match Autotune.choose ~devices ~device:Device.stratix10 ~max_width:16 p with
    | exception Invalid_argument m ->
        Format.eprintf "stencilflow: %s@." m;
        exit 1
    | best, sweep ->
        Format.printf "%6s %14s %10s %6s %8s@." "W" "model GOp/s" "bw-bound" "fits" "network";
        List.iter
          (fun e ->
            Format.printf "%6d %14.1f %10b %6b %8b%s@." e.Autotune.vector_width
              (e.Autotune.modeled_ops_per_s /. 1e9)
              e.Autotune.bandwidth_bound e.Autotune.fits e.Autotune.network_ok
              (if e.Autotune.vector_width = best.Autotune.vector_width then "   <- chosen"
               else ""))
          sweep
  in
  let doc = "Sweep vectorization widths under the device, memory and network models." in
  Cmd.v (Cmd.info "autotune" ~doc) Term.(const run $ program_arg $ devices_arg)

let report_cmd =
  let run path width fuse =
    print_string (Report.markdown (Program.Checked.program (load ~fuse path width)))
  in
  let doc = "Print a Markdown report: DAG, buffers, runtime model, roofline, resources." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ program_arg $ vector_width_arg $ Common.fuse_arg)

let serve_cmd =
  let cache_entries_arg =
    Arg.(value & opt int 128
         & info [ "cache-entries" ] ~docv:"N"
             ~doc:"Capacity of the in-memory LRU artifact cache, in entries.")
  in
  let serve_jobs_arg =
    Arg.(value & opt int 1
         & info [ "serve-jobs" ] ~docv:"N"
             ~doc:"Worker domains executing requests concurrently (default 1: one \
                   worker, FIFO execution). Identical concurrent requests still \
                   execute their passes once (single-flight).")
  in
  let queue_depth_arg =
    Arg.(value & opt int 64
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Maximum admitted-but-uncompleted requests; further requests are \
                   rejected immediately with an SF0903 diagnostic.")
  in
  let ordered_arg =
    Arg.(value & flag
         & info [ "ordered" ]
             ~doc:"Emit responses in request order (FIFO) instead of completion \
                   order. Costs head-of-line blocking under --serve-jobs > 1.")
  in
  let deadline_ms_arg =
    Arg.(value & opt int 0
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline in milliseconds (0 = none). A \
                   request whose budget expires before a pass that would actually \
                   execute answers SF0904 — cached replays are free, and completed \
                   passes stay cached for the retry. Overridable per request with \
                   the $(b,deadline_ms) field (negative disables).")
  in
  let run (common : Common.t) cache_entries serve_jobs queue_depth ordered deadline_ms =
    (* A client hanging up must surface as EPIPE in the writer (handled
       as graceful shutdown), not kill the daemon with SIGPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let on_trace =
      if common.Common.trace_passes then
        Some
          (fun ~verb trace ->
            Format.eprintf "%s: %a%!" verb Pass_manager.pp_trace trace)
      else None
    in
    let service =
      Service.create ~cache_capacity:cache_entries ?store_dir:common.Common.cache_dir
        ?on_trace ~serve_jobs ~queue_depth ~ordered ~deadline_ms ()
    in
    Service.serve_loop service stdin stdout
  in
  let doc =
    "Run a persistent compile/simulate service over newline-delimited JSON requests \
     on stdin (verbs: analyze, simulate, codegen, cache-stats, evict, cancel, \
     health, shutdown), one JSON response per line on stdout. Requests execute \
     concurrently on $(b,--serve-jobs) worker domains over a shared \
     content-addressed pass cache; see docs/PIPELINE.md for the protocol."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ Common.term $ cache_entries_arg $ serve_jobs_arg $ queue_depth_arg
      $ ordered_arg $ deadline_ms_arg)

(* stencilflow cache verify --cache-dir DIR: scrub every blob in the
   on-disk store, quarantining any whose checksum fails. *)
let cache_cmd =
  let verify_cmd =
    let run (common : Common.t) =
      match common.Common.cache_dir with
      | None ->
          prerr_endline "cache verify: --cache-dir is required";
          exit 2
      | Some dir ->
          let store = Store.open_ dir in
          let r = Store.scrub store in
          Printf.printf
            "cache verify: %d blob(s) scanned, %d ok, %d stale, %d corrupt%s\n" r.Store.scanned
            r.Store.ok r.Store.stale r.Store.corrupt
            (if r.Store.corrupt > 0 then " (quarantined as .corrupt)" else "");
          exit (if r.Store.corrupt > 0 then 1 else 0)
    in
    let doc =
      "Scrub the on-disk pass cache at $(b,--cache-dir): verify every blob's \
       version header and checksum trailer, quarantine corrupt blobs aside as \
       $(b,.corrupt) files, and report. Exits non-zero when corruption was found."
    in
    Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ Common.term)
  in
  let doc = "Inspect and maintain the on-disk pass cache." in
  Cmd.group (Cmd.info "cache" ~doc) [ verify_cmd ]

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "stencilflow" ~version:"1.0.0"
      ~doc:"Mapping large stencil programs to distributed spatial computing systems"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ analyze_cmd; simulate_cmd; validate_depths_cmd; codegen_cmd; serve_cmd;
            cache_cmd; partition_cmd; dot_cmd; fuse_cmd; optimize_cmd; report_cmd;
            tile_cmd; autotune_cmd ]))
