module Diag = Sf_support.Diag
module Program = Sf_ir.Program
module Stencil = Sf_ir.Stencil
module Engine = Sf_sim.Engine
module F = Sf_support.Fingerprint

(* The content digest of one slot value, filled on first use. A cell is
   shared by every context holding the value and by the cache entry that
   captured it, possibly across domains: a race fills it twice with the
   same digest, which is harmless. *)
type digest = F.t option Atomic.t

(* A kept digest is valid only while the slot still holds [value]
   (physically): a value installed behind the slot's back fails the
   identity check and is digested afresh. *)
type kept = { slot : string; value : Obj.t; digest : digest }

type t = {
  device : Sf_models.Device.t;
  sim_config : Engine.config;
  inputs : (string * Sf_reference.Tensor.t) list option;
  source_file : string option;
  program : Program.checked option;
  fusion : Sf_sdfg.Fusion.report option;
  opt : Sf_sdfg.Opt.report option;
  analysis : Sf_analysis.Delay_buffer.t option;
  partition : Sf_mapping.Partition.t option;
  kernels : Sf_codegen.Opencl.artifact list;
  host_source : string option;
  vitis_source : string option;
  simulation : (Engine.stats, Diag.t) result option;
  performance_model : float option;
  diags : Diag.t list;
  digests : kept list;
}

let fresh_digest () = Atomic.make None

(* A new program version invalidates everything derived from the old one,
   including the optimizer report and embedded-pipeline entries — stale
   reports would otherwise leak into cache keys. Only the fusion report
   survives: it describes how the current program came to be, not a
   property of a superseded version, and passes that produce a new
   report install it right after the swap. Erasing the program clears
   the same slots. *)
let set_program ctx program =
  {
    ctx with
    program;
    opt = None;
    analysis = None;
    partition = None;
    kernels = [];
    host_source = None;
    vitis_source = None;
    simulation = None;
    performance_model = None;
  }

let with_program ctx p = set_program ctx (Some p)

let the_program ctx =
  match ctx.program with
  | Some p -> Ok p
  | None ->
      Error
        [
          Diag.error ~code:Diag.Code.internal
            "no program loaded: a frontend pass must run first";
        ]

let the_analysis ctx =
  match ctx.analysis with
  | Some a -> Ok a
  | None ->
      Error
        [
          Diag.error ~code:Diag.Code.internal
            "no delay-buffer analysis: the delay-buffers pass must run first";
        ]

let add_diag ctx d =
  let same (d' : Diag.t) =
    d'.Diag.severity = d.Diag.severity
    && String.equal d'.Diag.code d.Diag.code
    && String.equal d'.Diag.message d.Diag.message
  in
  if List.exists same ctx.diags then ctx else { ctx with diags = ctx.diags @ [ d ] }

let code_bytes ctx =
  List.fold_left (fun acc (a : Sf_codegen.Opencl.artifact) -> acc + String.length a.source)
    0 ctx.kernels
  + (match ctx.host_source with Some s -> String.length s | None -> 0)
  + match ctx.vitis_source with Some s -> String.length s | None -> 0

let counters ctx =
  let program_counters =
    match Option.map Program.Checked.program ctx.program with
    | None -> []
    | Some p ->
        let edges =
          List.fold_left
            (fun acc s -> acc + List.length (Stencil.input_fields s))
            0 p.Program.stencils
        in
        [ ("stencils", List.length p.Program.stencils); ("edges", edges) ]
  in
  program_counters
  @ (match ctx.opt with
    | None -> []
    | Some (r : Sf_sdfg.Opt.report) ->
        [
          ("opt-ops-before", r.ops_before);
          ("opt-ops-after", r.ops_after);
          ("opt-shared", r.shared_nodes);
          ("opt-flops-saved", Sf_sdfg.Opt.flops_saved r);
        ])
  @ (match ctx.analysis with
    | None -> []
    | Some a -> [ ("delay-words", Sf_analysis.Delay_buffer.total_delay_buffer_words a) ])
  @ (match ctx.partition with
    | None -> []
    | Some pt -> [ ("devices", pt.Sf_mapping.Partition.num_devices) ])
  @ (match code_bytes ctx with 0 -> [] | n -> [ ("code-bytes", n) ])
  @
  match ctx.simulation with
  | Some (Ok (s : Engine.stats)) ->
      [
        ("sim-cycles", s.cycles);
        ("sim-stalls", Sf_sim.Telemetry.total_blocked s.telemetry);
        ("sim-net-bytes", s.network_bytes);
      ]
      @
      let f = s.faults in
      if f.Sf_sim.Fault_plan.injected_events > 0 then
        [
          ("faults-injected", f.Sf_sim.Fault_plan.injected_events);
          ("stall-cycles-injected", f.Sf_sim.Fault_plan.injected_stall_cycles);
        ]
      else []
  | Some (Error _) | None -> []

let fmt_to_string pp v =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  pp fmt v;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* Deterministic textual renderings, shared between [artifact_files] and
   the report slots' fingerprints. *)
let fusion_text (r : Sf_sdfg.Fusion.report) =
  Printf.sprintf "stencils %d -> %d\n%s" r.stencils_before r.stencils_after
    (String.concat ""
       (List.map (fun (u, v) -> Printf.sprintf "fused %s into %s\n" u v) r.fused_pairs))

let opt_text (r : Sf_sdfg.Opt.report) =
  Printf.sprintf "ops %d -> %d (tree %d)\nshared nodes %d\nflops saved by sharing %d\n"
    r.ops_before r.ops_after r.tree_ops_after r.shared_nodes (Sf_sdfg.Opt.flops_saved r)

let analysis_text a = fmt_to_string Sf_analysis.Delay_buffer.pp a
let partition_text pt = fmt_to_string Sf_mapping.Partition.pp pt

let simulation_text = function
  | Ok (s : Engine.stats) ->
      Printf.sprintf "cycles %d (predicted %d)\nbytes read %d, written %d, network %d\n"
        s.cycles s.predicted_cycles s.bytes_read s.bytes_written s.network_bytes
  | Error d -> Printf.sprintf "FAILED: %s\n" (Diag.to_string d)

let source_files ctx =
  Option.to_list (Option.map (fun s -> ("host.c", s)) ctx.host_source)
  @ Option.to_list (Option.map (fun s -> ("vitis.cpp", s)) ctx.vitis_source)
  @ List.map (fun (a : Sf_codegen.Opencl.artifact) -> (a.filename, a.source)) ctx.kernels

let artifact_files ctx =
  let file name content = Some (name, content) in
  List.filter_map
    (fun x -> x)
    [
      (match Option.map Program.Checked.program ctx.program with
      | Some p -> file "program.json" (Sf_frontend.Program_json.to_string p)
      | None -> None);
      (match ctx.fusion with Some r -> file "fusion.txt" (fusion_text r) | None -> None);
      (match ctx.opt with Some r -> file "opt.txt" (opt_text r) | None -> None);
      (match ctx.analysis with
      | Some a -> file "analysis.txt" (analysis_text a)
      | None -> None);
      (match ctx.partition with
      | Some pt -> file "partition.txt" (partition_text pt)
      | None -> None);
      (match ctx.simulation with
      | Some r -> file "simulation.txt" (simulation_text r)
      | None -> None);
    ]
  @ source_files ctx

(* Typed artifact slots.

   A slot names one artifact of the context, with a uniform interface to
   read it, install it, erase it, and fingerprint its content. Passes
   declare the slots they read and write (see {!Pass_manager.pass}); the
   content-addressed cache keys a pass execution on the fingerprints of
   its read slots and replays the values of its write slots on a hit.

   Environment slots (device, configuration, inputs) have no [erase] —
   they are request parameters, not pass products — so erasing them is a
   no-op; no pass lists them as writes. *)

type 'a slot = {
  slot_name : string;
  get : t -> 'a option;
  put : t -> 'a -> t;
  erase : t -> t;
  fp : 'a -> F.t;
}

type packed = P : 'a slot -> packed

(* Named apart from the old [Program.t] binding, whose blobs read as stale. *)
let program_slot =
  {
    slot_name = "program-checked";
    get = (fun ctx -> ctx.program);
    put = with_program;
    erase = (fun ctx -> set_program ctx None);
    fp = (fun c -> Program.fingerprint (Program.Checked.program c));
  }

let source_file_slot =
  {
    slot_name = "source-file";
    get = (fun ctx -> ctx.source_file);
    put = (fun ctx f -> { ctx with source_file = Some f });
    erase = (fun ctx -> { ctx with source_file = None });
    fp = F.of_string;
  }

let fusion_slot =
  {
    slot_name = "fusion";
    get = (fun ctx -> ctx.fusion);
    put = (fun ctx r -> { ctx with fusion = Some r });
    erase = (fun ctx -> { ctx with fusion = None });
    fp = (fun r -> F.of_string (fusion_text r));
  }

let opt_slot =
  {
    slot_name = "opt";
    get = (fun ctx -> ctx.opt);
    put = (fun ctx r -> { ctx with opt = Some r });
    erase = (fun ctx -> { ctx with opt = None });
    fp = (fun r -> F.of_string (opt_text r));
  }

(* The name keys the on-disk binding: a new [Delay_buffer.t] layout
   renames the slot, so blobs of the old layout read as stale. *)
let analysis_slot =
  {
    slot_name = "analysis-checked";
    get = (fun ctx -> ctx.analysis);
    put = (fun ctx a -> { ctx with analysis = Some a });
    erase = (fun ctx -> { ctx with analysis = None });
    fp = (fun a -> F.of_string (analysis_text a));
  }

let partition_slot =
  {
    slot_name = "partition";
    get = (fun ctx -> ctx.partition);
    put = (fun ctx pt -> { ctx with partition = Some pt });
    erase = (fun ctx -> { ctx with partition = None });
    fp = (fun pt -> F.of_string (partition_text pt));
  }

let kernels_slot =
  {
    slot_name = "kernels";
    get = (fun ctx -> match ctx.kernels with [] -> None | ks -> Some ks);
    put = (fun ctx ks -> { ctx with kernels = ks });
    erase = (fun ctx -> { ctx with kernels = [] });
    fp =
      (fun ks ->
        F.digest (fun st ->
            F.add_list st
              (fun st (a : Sf_codegen.Opencl.artifact) ->
                F.add_int st a.device;
                F.add_string st a.filename;
                F.add_string st a.source)
              ks));
  }

let host_source_slot =
  {
    slot_name = "host-source";
    get = (fun ctx -> ctx.host_source);
    put = (fun ctx s -> { ctx with host_source = Some s });
    erase = (fun ctx -> { ctx with host_source = None });
    fp = F.of_string;
  }

let vitis_source_slot =
  {
    slot_name = "vitis-source";
    get = (fun ctx -> ctx.vitis_source);
    put = (fun ctx s -> { ctx with vitis_source = Some s });
    erase = (fun ctx -> { ctx with vitis_source = None });
    fp = F.of_string;
  }

let simulation_slot =
  {
    slot_name = "simulation";
    get = (fun ctx -> ctx.simulation);
    put = (fun ctx r -> { ctx with simulation = Some r });
    erase = (fun ctx -> { ctx with simulation = None });
    fp =
      (fun r ->
        F.digest (fun st ->
            F.add_string st (simulation_text r);
            match r with
            | Error _ -> ()
            | Ok (s : Engine.stats) ->
                F.add_list st
                  (fun st (name, (res : Sf_reference.Interp.result)) ->
                    F.add_string st name;
                    F.add_fingerprint st (Sf_reference.Tensor.fingerprint res.tensor);
                    F.add_list st F.add_bool (Array.to_list res.valid))
                  s.results));
  }

let performance_model_slot =
  {
    slot_name = "performance-model";
    get = (fun ctx -> ctx.performance_model);
    put = (fun ctx v -> { ctx with performance_model = Some v });
    erase = (fun ctx -> { ctx with performance_model = None });
    fp = (fun v -> F.digest (fun st -> F.add_float st v));
  }

let device_slot =
  {
    slot_name = "device";
    get = (fun ctx -> Some ctx.device);
    put = (fun ctx d -> { ctx with device = d });
    erase = (fun ctx -> ctx);
    fp = Sf_models.Device.fingerprint;
  }

let sim_config_slot =
  {
    slot_name = "sim-config";
    get = (fun ctx -> Some ctx.sim_config);
    put = (fun ctx c -> { ctx with sim_config = c });
    erase = (fun ctx -> ctx);
    fp = Engine.Config.fingerprint;
  }

(* Narrow view of the config so latency-driven analyses are keyed only on
   the operator-latency table, not on simulation knobs like seeds or
   cycle limits — that is what makes an incremental request re-run only
   genuinely downstream passes. *)
let sim_latency_slot =
  {
    slot_name = "sim-latency";
    get = (fun ctx -> Some ctx.sim_config.Engine.Config.latency);
    put = (fun ctx l -> { ctx with sim_config = { ctx.sim_config with Engine.Config.latency = l } });
    erase = (fun ctx -> ctx);
    fp = Engine.Config.latency_fingerprint;
  }

let inputs_slot =
  {
    slot_name = "inputs";
    get = (fun ctx -> ctx.inputs);
    put = (fun ctx i -> { ctx with inputs = Some i });
    erase = (fun ctx -> { ctx with inputs = None });
    fp =
      (fun inputs ->
        F.digest (fun st ->
            F.add_list st
              (fun st (name, t) ->
                F.add_string st name;
                F.add_fingerprint st (Sf_reference.Tensor.fingerprint t))
              inputs));
  }

let all_slots =
  [
    P program_slot;
    P source_file_slot;
    P fusion_slot;
    P opt_slot;
    P analysis_slot;
    P partition_slot;
    P kernels_slot;
    P host_source_slot;
    P vitis_source_slot;
    P simulation_slot;
    P performance_model_slot;
    P device_slot;
    P sim_config_slot;
    P sim_latency_slot;
    P inputs_slot;
  ]

let slot_name (P s) = s.slot_name
let find_slot name = List.find_opt (fun p -> String.equal (slot_name p) name) all_slots
let slot_fingerprint ctx (P s) = Option.map s.fp (s.get ctx)

(* Kept digests ----------------------------------------------------- *)

let keep ctx s value digest =
  {
    ctx with
    digests =
      { slot = s.slot_name; value = Obj.repr value; digest }
      :: List.filter (fun k -> not (String.equal k.slot s.slot_name)) ctx.digests;
  }

let kept_digest ctx s v =
  List.find_map
    (fun k -> if String.equal k.slot s.slot_name && k.value == Obj.repr v then Some k.digest else None)
    ctx.digests

let digest_of ctx (P s) =
  match s.get ctx with
  | None -> None
  | Some v -> Some (match kept_digest ctx s v with Some d -> d | None -> fresh_digest ())

let keep_written ctx slots =
  List.fold_left
    (fun ctx (P s) ->
      match s.get ctx with
      | Some v when Option.is_none (kept_digest ctx s v) -> keep ctx s v (fresh_digest ())
      | Some _ | None -> ctx)
    ctx slots

let force digest s v =
  match Atomic.get digest with
  | Some fp -> fp
  | None ->
      let fp = s.fp v in
      Atomic.set digest (Some fp);
      fp

let kept_fingerprint ctx (P s) =
  match s.get ctx with
  | None -> None
  | Some v -> (
      match kept_digest ctx s v with Some d -> Some (force d s v) | None -> Some (s.fp v))

let create ?(device = Sf_models.Device.stratix10) ?(sim_config = Engine.Config.default)
    ?inputs () =
  let ctx =
    {
      device;
      sim_config;
      inputs;
      source_file = None;
      program = None;
      fusion = None;
      opt = None;
      analysis = None;
      partition = None;
      kernels = [];
      host_source = None;
      vitis_source = None;
      simulation = None;
      performance_model = None;
      diags = [];
      digests = [];
    }
  in
  (* The environment slots hold their values for the whole request: one
     digest each, computed when the first key reads it. *)
  keep_written ctx [ P device_slot; P sim_config_slot; P sim_latency_slot; P inputs_slot ]
