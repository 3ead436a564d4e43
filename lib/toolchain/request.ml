module Json = Sf_support.Json
module Diag = Sf_support.Diag
module Engine = Sf_sim.Engine

type verb = [ `Analyze | `Simulate | `Codegen ]

let verbs = [ ("analyze", `Analyze); ("simulate", `Simulate); ("codegen", `Codegen) ]
let verb_name v = fst (List.find (fun (_, v') -> v' = v) verbs)
let verb_of_name name = List.assoc_opt name verbs
let backends = [ ("opencl", `Opencl); ("vitis", `Vitis) ]

type source = File of string | Inline of Json.t | Program of Sf_ir.Program.t

type options = {
  width : int option;
  fuse : bool;
  optimize : bool;
  devices : int option;
  seed : int;
  validate : bool;
  max_cycles : int option;
  backend : [ `Opencl | `Vitis ];
}

let default_options =
  {
    width = None;
    fuse = false;
    optimize = false;
    devices = None;
    seed = 42;
    validate = true;
    max_cycles = None;
    backend = `Opencl;
  }

type t = { verb : verb; source : source; options : options }

let make ?(options = default_options) verb source = { verb; source; options }

(* Wire format ------------------------------------------------------- *)

let ( let* ) = Result.bind
let format_error msg = Error [ Diag.error ~code:Diag.Code.format msg ]

(* An absent option takes its default; a present one of the wrong JSON
   type is an error naming the field. *)
let decode_options json =
  let d = default_options in
  let* o =
    match Json.member "options" json with
    | None -> Ok (Json.Obj [])
    | Some (Json.Obj _ as o) -> Ok o
    | Some _ -> format_error "\"options\" must be an object"
  in
  let field k kind decode =
    match Json.member k o with
    | None -> Ok None
    | Some v -> (
        match decode v with
        | Some x -> Ok (Some x)
        | None -> format_error (Printf.sprintf "option %S must be %s" k kind))
  in
  let int k = field k "an integer" Json.int_opt in
  let bool k ~default =
    Result.map (Option.value ~default)
      (field k "a boolean" (function Json.Bool b -> Some b | _ -> None))
  in
  let* width = int "width" in
  let* fuse = bool "fuse" ~default:d.fuse in
  let* optimize = bool "optimize" ~default:d.optimize in
  let* devices = int "devices" in
  let* seed = int "seed" in
  let* validate = bool "validate" ~default:d.validate in
  let* max_cycles = int "max_cycles" in
  let* backend = field "backend" "a string" Json.string_opt in
  let* backend =
    match backend with
    | None -> Ok d.backend
    | Some name -> (
        match List.assoc_opt name backends with
        | Some b -> Ok b
        | None -> Error [ Diag.errorf ~code:Diag.Code.format "unknown backend %S" name ])
  in
  let seed = Option.value seed ~default:d.seed in
  Ok { width; fuse; optimize; devices; seed; validate; max_cycles; backend }

let decode_source json =
  match (Json.member "program" json, Json.member "program_file" json) with
  | Some p, _ -> Ok (Inline p)
  | None, Some f -> (
      match Json.string_opt f with
      | Some path -> Ok (File path)
      | None -> format_error "\"program_file\" must be a string")
  | None, None -> format_error "request needs a \"program\" object or a \"program_file\" path"

let of_json json =
  let* verb =
    match Option.bind (Json.member "verb" json) Json.string_opt with
    | Some name -> (
        match verb_of_name name with
        | Some v -> Ok v
        | None -> Error [ Diag.errorf ~code:Diag.Code.format "unknown verb %S" name ])
    | None -> format_error "request has no \"verb\""
  in
  let* options = decode_options json in
  let* source = decode_source json in
  Ok { verb; source; options }

let to_json t =
  let o = t.options in
  let opt_int k = function Some n -> [ (k, Json.Int n) ] | None -> [] in
  let source =
    match t.source with
    | File path -> ("program_file", Json.String path)
    | Inline p -> ("program", p)
    | Program p -> ("program", Sf_frontend.Program_json.to_json p)
  in
  Json.Obj
    [
      ("verb", Json.String (verb_name t.verb));
      source;
      ( "options",
        Json.Obj
          (opt_int "width" o.width
          @ [ ("fuse", Json.Bool o.fuse); ("optimize", Json.Bool o.optimize) ]
          @ opt_int "devices" o.devices
          @ [ ("seed", Json.Int o.seed); ("validate", Json.Bool o.validate) ]
          @ opt_int "max_cycles" o.max_cycles
          @ [ ("backend", Json.String (fst (List.find (fun (_, b) -> b = o.backend) backends))) ]
          ) );
    ]

(* Execution --------------------------------------------------------- *)

(* Fusion runs before the optimiser so fold-cse sees (and re-shares) the
   substituted fused bodies. *)
let frontend_passes t =
  let o = t.options in
  [
    (match t.source with
    | File path -> Passes.load_file path
    | Inline p -> Passes.load_string (Json.to_string ~minify:true p)
    | Program p -> Passes.use_program p);
  ]
  @ (match o.width with Some w -> [ Passes.vectorize w ] | None -> [])
  @ (if o.fuse then [ Passes.fuse () ] else [])
  @ if o.optimize then [ Passes.optimize () ] else []

let verb_passes t =
  let o = t.options in
  match t.verb with
  | `Analyze -> [ Passes.delay_buffers ]
  | `Simulate ->
      [
        Passes.delay_buffers;
        (match o.devices with Some n -> Passes.partition_into n | None -> Passes.partition);
        Passes.performance_model;
        Passes.simulate ~validate:o.validate ~seed:o.seed ();
      ]
  | `Codegen ->
      [
        Passes.delay_buffers;
        Passes.partition;
        (match o.backend with `Opencl -> Passes.codegen_opencl | `Vitis -> Passes.codegen_vitis);
      ]

let passes t = frontend_passes t @ verb_passes t

let execute ?(config = Engine.Config.default) ?device ?inputs ?cache ?hooks ?should_stop
    ?deadline t passes =
  let sim_config =
    match t.options.max_cycles with
    | None -> config
    | Some n ->
        let safety = { config.Engine.Config.safety with max_cycles = Some n } in
        { config with Engine.Config.safety }
  in
  Pass_manager.run ?hooks ?cache ?should_stop ?deadline passes
    (Ctx.create ?device ~sim_config ?inputs ())

let run ?config ?device ?inputs ?cache ?hooks ?should_stop ?deadline t =
  execute ?config ?device ?inputs ?cache ?hooks ?should_stop ?deadline t (passes t)

let frontend t =
  match execute t (frontend_passes t) with
  | Ok (ctx, _) -> Ok ctx
  | Error (ds, _) -> Error ds

(* Results ----------------------------------------------------------- *)

let analyze_fields (ctx : Ctx.t) =
  match (ctx.Ctx.program, ctx.Ctx.analysis) with
  | Some c, Some a ->
      let p = Sf_ir.Program.Checked.program c in
      [
        ("program", Json.String p.Sf_ir.Program.name);
        ("latency_cycles", Json.Int a.Sf_analysis.Delay_buffer.latency_cycles);
        ("delay_buffer_words", Json.Int (Sf_analysis.Delay_buffer.total_delay_buffer_words a));
        ("expected_cycles", Json.Int (Sf_analysis.Runtime_model.analyzed_cycles p a));
      ]
  | _ -> []

let simulate_result (ctx : Ctx.t) =
  let devices =
    match ctx.Ctx.partition with
    | Some pt -> [ ("devices", Json.Int pt.Sf_mapping.Partition.num_devices) ]
    | None -> []
  in
  let performance =
    match ctx.Ctx.performance_model with
    | Some ops -> [ ("modeled_ops_per_s", Json.Float ops) ]
    | None -> []
  in
  let simulation =
    match ctx.Ctx.simulation with
    | Some (Ok (s : Engine.stats)) ->
        [
          ( "simulation",
            Json.Obj
              [
                ("cycles", Json.Int s.Engine.cycles);
                ("predicted_cycles", Json.Int s.Engine.predicted_cycles);
                ("bytes_read", Json.Int s.Engine.bytes_read);
                ("bytes_written", Json.Int s.Engine.bytes_written);
                ("network_bytes", Json.Int s.Engine.network_bytes);
              ] );
        ]
    | Some (Error d) -> [ ("simulation", Json.Obj [ ("failed", Diag.to_json d) ]) ]
    | None -> []
  in
  Json.Obj (analyze_fields ctx @ devices @ performance @ simulation)

let codegen_result (ctx : Ctx.t) =
  let files =
    List.filter_map
      (fun (name, source) ->
        if List.exists (Filename.check_suffix name) [ ".cl"; ".c"; ".cpp" ] then
          let bytes = Json.Int (String.length source) in
          Some (Json.Obj [ ("filename", Json.String name); ("bytes", bytes) ])
        else None)
      (Ctx.source_files ctx)
  in
  Json.Obj [ ("files", Json.List files); ("code_bytes", Json.Int (Ctx.code_bytes ctx)) ]

let result_json t ctx =
  match t.verb with
  | `Analyze -> Json.Obj (analyze_fields ctx)
  | `Simulate -> simulate_result ctx
  | `Codegen -> codegen_result ctx
