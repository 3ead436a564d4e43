module Diag = Sf_support.Diag
module F = Sf_support.Fingerprint
module Program = Sf_ir.Program
module Engine = Sf_sim.Engine
module Partition = Sf_mapping.Partition

open Pass_manager

let ( let* ) r f = match r with Ok v -> f v | Error ds -> Error ds

(* Each program version is checked once, by the pass that makes it. *)
let install ?(fail = List.map (Diag.error ~code:Diag.Code.validation)) ctx p =
  match Program.check p with
  | Ok c -> Ok (Ctx.with_program ctx c)
  | Error msgs -> Error (fail msgs)

(* A load pass installs the check its decoder made. *)
let load ?file ctx loaded =
  Result.map (fun c -> { (Ctx.with_program ctx c) with Ctx.source_file = file }) loaded

(* Options fingerprints: a pass's cache key must cover the arguments its
   closure captured, not just the context it reads. *)
let opts f () = Some (F.digest f)
let no_opts = opts (fun _ -> ())

let load_file path =
  make_pass ~name:"load-file"
    ~description:("parse and validate a JSON program description from " ^ path)
    ~kind:Frontend
    ~writes:[ Ctx.P Ctx.program_slot; Ctx.P Ctx.source_file_slot ]
    ~fingerprint:(fun () ->
      (* Key on the file's bytes, so an edited file is a different
         execution; an unreadable file is uncacheable and fails live. *)
      match In_channel.with_open_bin path In_channel.input_all with
      | content -> Some (F.digest (fun st -> F.add_string st content))
      | exception Sys_error _ -> None)
    (fun ctx -> load ~file:path ctx (Sf_frontend.Program_json.checked_of_file path))

let load_string source =
  make_pass ~name:"load-string"
    ~description:"parse and validate an in-memory JSON program description" ~kind:Frontend
    ~writes:[ Ctx.P Ctx.program_slot; Ctx.P Ctx.source_file_slot ]
    ~fingerprint:(opts (fun st -> F.add_string st source))
    (fun ctx -> load ctx (Sf_frontend.Program_json.checked_of_string source))

let use_program p =
  make_pass ~name:"use-program" ~description:"install an already-constructed program"
    ~kind:Frontend
    ~writes:[ Ctx.P Ctx.program_slot ]
    ~fingerprint:(fun () -> Some (Program.fingerprint p))
    (fun ctx -> install ctx p)

let fuse ?max_body_size () =
  make_pass ~name:"stencil-fusion"
    ~description:"aggressively fuse producer/consumer stencils (Sec. V-B)" ~kind:Transform
    ~reads:[ Ctx.P Ctx.program_slot ]
    ~writes:[ Ctx.P Ctx.program_slot; Ctx.P Ctx.fusion_slot ]
    ~fingerprint:(opts (fun st -> F.add_option st F.add_int max_body_size))
    (fun ctx ->
      let* c = Ctx.the_program ctx in
      let p', report = Sf_sdfg.Fusion.fuse_all ?max_body_size (Program.Checked.program c) in
      Result.map (fun ctx -> { ctx with Ctx.fusion = Some report }) (install ctx p'))

let optimize ?min_size () =
  make_pass ~name:"fold-cse"
    ~description:"constant folding and common subexpression elimination" ~kind:Transform
    ~reads:[ Ctx.P Ctx.program_slot ]
    ~writes:[ Ctx.P Ctx.program_slot; Ctx.P Ctx.opt_slot ]
    ~fingerprint:(opts (fun st -> F.add_option st F.add_int min_size))
    (fun ctx ->
      let* c = Ctx.the_program ctx in
      let p', report = Sf_sdfg.Opt.optimize_with_report ?min_size (Program.Checked.program c) in
      Result.map (fun ctx -> { ctx with Ctx.opt = Some report }) (install ctx p'))

let vectorize w =
  make_pass
    ~name:(Printf.sprintf "vectorize-%d" w)
    ~description:"set the vectorization width (Sec. IV-C)" ~kind:Transform
    ~reads:[ Ctx.P Ctx.program_slot ]
    ~writes:[ Ctx.P Ctx.program_slot ]
    ~fingerprint:(opts (fun st -> F.add_int st w))
    (fun ctx ->
      let* c = Ctx.the_program ctx in
      (* An illegal width fails the check, reported as a failed transform. *)
      install ctx (Program.with_vector_width (Program.Checked.program c) w) ~fail:(fun msgs ->
          [ Diag.errorf ~code:Diag.Code.transform "pass vectorize failed: %s"
              (String.concat "\n" msgs) ]))

let delay_buffers =
  make_pass ~name:"delay-buffers"
    ~description:"size inter-stencil delay buffers and the program latency (Sec. IV-B)"
    ~kind:Analysis
    ~reads:[ Ctx.P Ctx.program_slot; Ctx.P Ctx.sim_latency_slot ]
    ~writes:[ Ctx.P Ctx.analysis_slot ]
    ~fingerprint:no_opts
    (fun ctx ->
      let* c = Ctx.the_program ctx in
      try
        let a =
          Sf_analysis.Delay_buffer.of_checked ~config:ctx.Ctx.sim_config.Engine.Config.latency c
        in
        Ok { ctx with Ctx.analysis = Some a }
      with Invalid_argument m | Failure m ->
        Error [ Diag.errorf ~code:Diag.Code.analysis_invariant "delay-buffer analysis failed: %s" m ])

let partition =
  make_pass ~name:"partition"
    ~description:"map stencils onto devices under the resource model (Sec. III-B)"
    ~kind:Mapping
    ~reads:[ Ctx.P Ctx.program_slot; Ctx.P Ctx.analysis_slot; Ctx.P Ctx.device_slot ]
    ~writes:[ Ctx.P Ctx.partition_slot ]
    ~fingerprint:no_opts
    (fun ctx ->
      let* a = Ctx.the_analysis ctx in
      match Partition.greedy ~device:ctx.Ctx.device (Sf_analysis.Delay_buffer.checked a) with
      | Ok pt -> Ok { ctx with Ctx.partition = Some pt }
      | Error d ->
          let warn =
            Diag.warning ~code:Diag.Code.partition_fallback
              ~notes:[ d.Diag.message ]
              "program does not partition across devices; falling back to a single \
               oversubscribed device"
          in
          let pt = Partition.single_device a in
          Ctx.add_diag { ctx with Ctx.partition = Some pt } warn
          |> Result.ok)

let partition_into devices =
  make_pass
    ~name:(Printf.sprintf "partition-into-%d" devices)
    ~description:"split the topological order into even contiguous device chunks"
    ~kind:Mapping
    ~reads:[ Ctx.P Ctx.program_slot; Ctx.P Ctx.analysis_slot ]
    ~writes:[ Ctx.P Ctx.partition_slot ]
    ~fingerprint:(opts (fun st -> F.add_int st devices))
    (fun ctx ->
      let* a = Ctx.the_analysis ctx in
      match Partition.contiguous_checked ~devices (Sf_analysis.Delay_buffer.checked a) with
      | Ok pt -> Ok { ctx with Ctx.partition = Some pt }
      | Error d -> Error [ d ])

let performance_model =
  make_pass ~name:"performance-model"
    ~description:"evaluate the Eq. 1 runtime model at the device clock" ~kind:Analysis
    ~reads:[ Ctx.P Ctx.program_slot; Ctx.P Ctx.analysis_slot; Ctx.P Ctx.device_slot ]
    ~writes:[ Ctx.P Ctx.performance_model_slot ]
    ~fingerprint:no_opts
    (fun ctx ->
      let* a = Ctx.the_analysis ctx in
      let p = Program.Checked.program (Sf_analysis.Delay_buffer.checked a) in
      let ops =
        Sf_analysis.Runtime_model.analyzed_ops_per_s
          ~frequency_hz:ctx.Ctx.device.Sf_models.Device.frequency_hz p a
      in
      Ok { ctx with Ctx.performance_model = Some ops })

let simulate ?(validate = true) ~seed () =
  make_pass ~name:"simulate"
    ~description:"cycle-level spatial simulation validated against the reference"
    ~kind:Simulation
    ~reads:
      [
        Ctx.P Ctx.program_slot;
        Ctx.P Ctx.analysis_slot;
        Ctx.P Ctx.partition_slot;
        Ctx.P Ctx.sim_config_slot;
        Ctx.P Ctx.inputs_slot;
      ]
    ~writes:[ Ctx.P Ctx.simulation_slot ]
    ~fingerprint:
      (opts (fun st ->
           F.add_bool st validate;
           F.add_int st seed))
    (fun ctx ->
      (* The delay-buffers pass analysed the program at the request's
         latency: the engine sizes its channels from that analysis. *)
      let* a = Ctx.the_analysis ctx in
      let p = Program.Checked.program (Sf_analysis.Delay_buffer.checked a) in
      let placement = Option.map Partition.placement_fn ctx.Ctx.partition in
      let inputs =
        match ctx.Ctx.inputs with
        | Some i -> i
        | None -> Sf_reference.Interp.random_inputs ~seed p
      in
      let result =
        Engine.run_prepared ~config:ctx.Ctx.sim_config ?placement ~inputs ~validate
          (Engine.prepare a)
      in
      let ctx = { ctx with Ctx.simulation = Some result } in
      match result with Ok _ -> Ok ctx | Error d -> Ok (Ctx.add_diag ctx d))

let codegen_opencl =
  make_pass ~name:"codegen-opencl"
    ~description:"emit Intel-FPGA-style OpenCL kernels and host code (Sec. VI)" ~kind:Codegen
    ~reads:[ Ctx.P Ctx.program_slot; Ctx.P Ctx.analysis_slot; Ctx.P Ctx.partition_slot ]
    ~writes:[ Ctx.P Ctx.kernels_slot; Ctx.P Ctx.host_source_slot ]
    ~fingerprint:no_opts
    (fun ctx ->
      let* a = Ctx.the_analysis ctx in
      let* sdfg = Sf_codegen.Opencl.lower_analysis ?partition:ctx.Ctx.partition a in
      Ok
        {
          ctx with
          Ctx.kernels = Sf_codegen.Opencl.kernels sdfg;
          Ctx.host_source = Some (Sf_codegen.Opencl.host sdfg);
        })

let codegen_vitis =
  make_pass ~name:"codegen-vitis" ~description:"emit Xilinx-style Vitis HLS C++ (Sec. VI)"
    ~kind:Codegen
    ~reads:[ Ctx.P Ctx.program_slot; Ctx.P Ctx.analysis_slot ]
    ~writes:[ Ctx.P Ctx.vitis_source_slot ]
    ~fingerprint:no_opts
    (fun ctx ->
      let* a = Ctx.the_analysis ctx in
      let* sdfg = Sf_codegen.Opencl.lower_analysis a in
      Ok { ctx with Ctx.vitis_source = Some (Sf_codegen.Vitis.source sdfg) })

let mkdir_p dir =
  (* Only the leaf and its parent are ever missing in practice, but walk
     the whole path to be safe. *)
  let parts = String.split_on_char '/' dir in
  ignore
    (List.fold_left
       (fun prefix part ->
         let path = if prefix = "" then part else prefix ^ "/" ^ part in
         if path <> "" && not (Sys.file_exists path) then Sys.mkdir path 0o755;
         path)
       (if String.length dir > 0 && dir.[0] = '/' then "/" else "")
       parts)

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let dump_hook ~dir =
  {
    Pass_manager.no_hooks with
    dump =
      Some
        (fun ~index ~pass ctx ->
          let subdir = Filename.concat dir (Printf.sprintf "%02d-%s" index pass) in
          mkdir_p subdir;
          List.iter
            (fun (name, content) -> write_file (Filename.concat subdir name) content)
            (Ctx.artifact_files ctx));
  }
