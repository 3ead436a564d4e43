(* flowbench: the repository benchmark. See README.md in this directory.

     flowbench.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1]
                   [--trace-out FILE] [--out FILE] [--quick]
     flowbench.exe --compare A.jsonl B.jsonl   (bounds from ./BENCHMARK.json)

   A run prints every metric as "name value unit", then, as its last
   line, one JSON object with the keys correct, attempted, failed and
   metrics. It exits 1 when a correctness gate fails. *)

open Stencilflow

let workloads = [ "chain-sim"; "hdiff-sim"; "pdes-2dev"; "serve-dse" ]

type args = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable out : string option;
  mutable quick : bool;
  mutable compare : (string * string) option;
}

let usage () =
  prerr_endline
    "usage: flowbench.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1] \
     [--trace-out FILE] [--out FILE] [--quick]\n\
    \       flowbench.exe --compare A.jsonl B.jsonl";
  exit 2

let parse argv =
  let a =
    { workload = None; seed = 1; seconds = None; trace = false; trace_out = None; out = None;
      quick = false; compare = None }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> a.workload <- Some w; go rest
    | "--seed" :: s :: rest -> a.seed <- int_of_string s; go rest
    | "--seconds" :: s :: rest -> a.seconds <- Some (float_of_string s); go rest
    | "--trace" :: t :: rest -> a.trace <- t <> "0"; go rest
    | "--trace-out" :: f :: rest -> a.trace <- true; a.trace_out <- Some f; go rest
    | "--out" :: f :: rest -> a.out <- Some f; go rest
    | "--quick" :: rest -> a.quick <- true; go rest
    | "--compare" :: x :: y :: rest -> a.compare <- Some (x, y); go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  a

(* The example programs and the CLI binary, found from the repository
   root (where the benchmark runs) or from this executable's build
   directory (where the dune smoke rule runs it). *)
let first_existing what candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith ("cannot find " ^ what ^ ": tried " ^ String.concat ", " candidates)

let exe_dir = Filename.dirname Sys.executable_name

let examples_dir () =
  first_existing "examples/programs"
    [ "examples/programs"; Filename.concat exe_dir "../../examples/programs" ]

let stencilflow_exe () =
  first_existing "the stencilflow binary" [ Filename.concat exe_dir "../../bin/main.exe" ]

let run_workload a name =
  let quick = a.quick and seed = a.seed in
  let seconds = Option.value a.seconds ~default:(if quick then 0.5 else 20.) in
  let examples = examples_dir () in
  match name with
  | "serve-dse" ->
      let exe = stencilflow_exe () in
      if a.trace then Serve_workload.run_traced ~quick ~seed ~seconds ~examples ~exe
      else Serve_workload.run_untraced ~quick ~seed ~seconds ~examples ~exe
  | _ ->
      let spec = Sim_workloads.spec ~quick name in
      if a.trace then Sim_workloads.run_traced ~quick ~seed ~seconds ~examples spec
      else Sim_workloads.run_untraced ~quick ~seed ~seconds spec

(* The catalogue the run must report, in catalogue order. A layer the
   workload does not exercise reads 0; a missing metric in time units is
   a harness bug, since time metrics are measured on every workload. A
   value that is not finite reads 0 and fails the run. *)
let complete ~trace (o : Harness.outcome) =
  let catalogue = if trace then Harness.per_layer else Harness.end_to_end in
  let bad = ref [] in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (m : Harness.metric) -> m.Harness.name = name) o.Harness.metrics with
        | Some m when m.Harness.unit <> unit -> failwith ("metric in the wrong unit: " ^ name)
        | Some m when Float.is_finite m.Harness.value -> m
        | Some _ ->
            bad := ("metric " ^ name ^ " is not finite") :: !bad;
            Harness.metric name unit 0.
        | None when (not trace) || List.mem unit Harness.time_units ->
            failwith ("metric not measured: " ^ name)
        | None -> Harness.metric name unit 0.)
      catalogue
  in
  let failed = o.Harness.failed + List.length !bad in
  ({ o with Harness.failed; errors = o.Harness.errors @ List.rev !bad }, metrics)

let result_json ~correct (o : Harness.outcome) metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int o.Harness.attempted);
      ("failed", Json.Int o.Harness.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Harness.metric) ->
               ( m.Harness.name,
                 Json.Obj
                   [ ("value", Json.Float m.Harness.value); ("unit", Json.String m.Harness.unit) ]
               ))
             metrics) );
    ]

let append_record file a name (o : Harness.outcome) result =
  let fields = match result with Json.Obj f -> f | _ -> [] in
  let record =
    Json.Obj
      ([
         ("workload", Json.String name);
         ("seed", Json.Int a.seed);
         ("trace", Json.Int (if a.trace then 1 else 0));
         ("quick", Json.Bool a.quick);
         ("host_cores", Json.Int (Executor.default_jobs ()));
         ("ocaml", Json.String Sys.ocaml_version);
         ("hostspeed_kernel_s", Json.Float o.Harness.calibration_s);
       ]
      @ fields)
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
      output_string oc (Json.to_string ~minify:true record);
      output_char oc '\n')

let () =
  let a = parse Sys.argv in
  match (a.compare, a.workload) with
  | Some (x, y), _ -> exit (Compare.run ~spec:"BENCHMARK.json" x y)
  | None, Some name when List.mem name workloads ->
      let o, metrics = complete ~trace:a.trace (run_workload a name) in
      List.iter
        (fun (m : Harness.metric) ->
          Printf.printf "%s %.17g %s\n" m.Harness.name m.Harness.value m.Harness.unit)
        metrics;
      if o.Harness.calibration_s > 0. then
        Printf.printf "host speed: kernel %.6f s (reference %.6f s)\n" o.Harness.calibration_s
          Hostspeed.reference_s;
      List.iter (fun e -> Printf.eprintf "gate failed: %s\n" e) o.Harness.errors;
      let correct = o.Harness.failed = 0 && o.Harness.attempted > 0 in
      let result = result_json ~correct o metrics in
      Option.iter (fun f -> append_record f a name o result) a.out;
      (match (a.trace_out, o.Harness.spans) with
      | Some file, Some spans ->
          Out_channel.with_open_text file (fun oc ->
              output_string oc (Json.to_string ~minify:true (Spans.to_chrome_json spans)))
      | _ -> ());
      print_endline (Json.to_string ~minify:true result);
      exit (if correct then 0 else 1)
  | _ -> usage ()
