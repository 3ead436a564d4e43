(* Engine parity harness: the simulator's observable behaviour — cycle
   counts, per-unit stall counts, per-channel high-water marks, byte and
   network accounting, occupancy traces, deadlock diagnoses and the
   computed outputs themselves — must be bit-identical to the seed
   engine. [Seed_parity_data.expected] holds signatures recorded from the
   original cycle-by-cycle engine; any scheduling or data-path
   optimization (ready sets, fast-forward batching, zero-allocation
   channels) has to reproduce them exactly.

   To re-record after an *intentional* semantic change:
     SF_PARITY_RECORD=1 dune exec test/main.exe -- test sim_parity
   which rewrites test/seed_parity_data.ml in the source tree. *)
module Engine = Sf_sim.Engine
module Telemetry = Sf_sim.Telemetry
module Interp = Sf_reference.Interp
module Tensor = Sf_reference.Tensor

let cheap_config = Engine.Config.make ~latency:Sf_analysis.Latency.cheap ()

(* FNV-1a over the exact float bits: any single-ulp deviation changes the
   fingerprint. *)
let fingerprint_floats h (a : float array) =
  let h = ref h in
  Array.iter
    (fun v -> h := Int64.mul (Int64.logxor !h (Int64.bits_of_float v)) 0x100000001b3L)
    a;
  !h

let fingerprint_bools h (a : bool array) =
  let h = ref h in
  Array.iter
    (fun b -> h := Int64.mul (Int64.logxor !h (if b then 3L else 5L)) 0x100000001b3L)
    a;
  !h

let fingerprint_results results =
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (fun (name, (r : Interp.result)) ->
      String.iter
        (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
        name;
      h := fingerprint_floats !h r.Interp.tensor.Tensor.data;
      h := fingerprint_bools !h r.Interp.valid)
    results;
  !h

let signature outcome =
  match outcome with
  | Engine.Completed s ->
      let stalls =
        Sf_support.Util.string_concat_map ","
          (fun (n, c) -> Printf.sprintf "%s:%d" n c)
          (Telemetry.unit_stalls s.Engine.telemetry)
      in
      let hw =
        Sf_support.Util.string_concat_map ","
          (fun (n, h, c) -> Printf.sprintf "%s:%d/%d" n h c)
          (Telemetry.channel_high_water s.Engine.telemetry)
      in
      let trace =
        let h = ref 0xcbf29ce484222325L in
        List.iter
          (fun (cycle, occs) ->
            h := Int64.mul (Int64.logxor !h (Int64.of_int cycle)) 0x100000001b3L;
            List.iter
              (fun (_, occ) ->
                h := Int64.mul (Int64.logxor !h (Int64.of_int occ)) 0x100000001b3L)
              occs)
          s.Engine.telemetry.Telemetry.samples;
        Printf.sprintf "%d/%Lx" (List.length s.Engine.telemetry.Telemetry.samples) !h
      in
      Printf.sprintf "cycles=%d pred=%d read=%d written=%d net=%d stalls=[%s] hw=[%s] out=%Lx trace=%s"
        s.Engine.cycles s.Engine.predicted_cycles s.Engine.bytes_read s.Engine.bytes_written
        s.Engine.network_bytes stalls hw
        (fingerprint_results s.Engine.results)
        trace
  | Engine.Deadlocked { cycle; blocked; wait_cycle; _ } ->
      Printf.sprintf "deadlock@%d blocked=[%s] wait=[%s]" cycle
        (Sf_support.Util.string_concat_map "," (fun (n, r) -> n ^ ":" ^ r) blocked)
        (String.concat "->" wait_cycle)

(* ------------------------------------------------------------------ *)
(* The recorded scenarios. Shapes are small so the fixture stays fast,  *)
(* but together they exercise every engine feature: multicast readers,  *)
(* shrink writers, lower-dimensional prefetch, vectorization, links,    *)
(* bandwidth caps, occupancy traces, deadlock and its diagnosis.        *)
(* ------------------------------------------------------------------ *)

let example name = Fixtures.ok (Sf_frontend.Program_json.of_file (Fixtures.example_path name))

let cases : (string * (unit -> Engine.outcome)) list =
  let run ?(config = cheap_config) ?placement p () = Engine.run_exn ~config ?placement p in
  let named = [
    ("laplace2d", run (Fixtures.laplace2d ()));
    ("laplace2d-w4", run (Fixtures.laplace2d ~shape:[ 8; 32 ] ~vector_width:4 ()));
    ("diamond", run (Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 ()));
    ("chain3-w2", run (Fixtures.chain ~shape:[ 4; 16 ] ~n:3 ~vector_width:2 ()));
    ("kitchen-sink", run (Fixtures.kitchen_sink ()));
    ("kitchen-sink-w2", run (Fixtures.kitchen_sink ~shape:[ 3; 4; 8 ] ~vector_width:2 ()));
    ("fork", run (Fixtures.fork ()));
    ("smoothing3d", run (example "smoothing3d.json"));
    ("diamond-json", run (example "diamond.json"));
    ( "deadlock-diamond",
      run
        ~config:
          {
            cheap_config with
            Engine.Config.override_edge_buffers = [ (("a", "c"), 0) ];
            Engine.Config.channel_slack = 2;
            Engine.Config.safety = Engine.Config.safety ~deadlock_window:256 ();
          }
        (Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 ()) );
    ( "multi-device-chain",
      run
        ~config:
          { cheap_config with
            Engine.Config.network = Engine.Config.network ~net_latency_cycles:16 () }
        ~placement:(function "f1" | "f2" -> 0 | _ -> 1)
        (Fixtures.chain ~shape:[ 6; 10 ] ~n:4 ()) );
    ( "net-capped-chain",
      run
        ~config:
          {
            cheap_config with
            Engine.Config.network =
              Engine.Config.network ~net_bytes_per_cycle:2. ~net_latency_cycles:4 ();
          }
        ~placement:(function "f2" -> 1 | _ -> 0)
        (Fixtures.chain ~shape:[ 8; 24 ] ~n:2 ()) );
    ( "mem-capped-laplace",
      run
        ~config:
          { cheap_config with
            Engine.Config.bandwidth = Engine.Config.bandwidth ~mem_bytes_per_cycle:4. () }
        (Fixtures.laplace2d ~shape:[ 8; 32 ] ()) );
    ( "traced-diamond",
      run
        ~config:
          { cheap_config with
            Engine.Config.tracing = Engine.Config.tracing ~trace_interval:8 () }
        (Fixtures.diamond ~shape:[ 8; 16 ] ~span:4 ()) );
    ( "max-cycles-timeout",
      run
        ~config:
          { cheap_config with
            Engine.Config.safety =
              Engine.Config.safety ~deadlock_window:4096 ~max_cycles:40 () }
        (Fixtures.chain ~shape:[ 6; 10 ] ~n:3 ()) );
    ("long-rows-chain8", run (Fixtures.chain ~shape:[ 5; 150 ] ~n:8 ()));
    ("chain4-w4-ragged", run (Fixtures.chain ~shape:[ 2; 264 ] ~n:4 ~vector_width:4 ()));
  ]
  in
  let random =
    QCheck.Gen.generate ~n:14 ~rand:(Random.State.make [| 0x5eed |]) Program_gen.program_gen
    |> List.mapi (fun i p -> (Printf.sprintf "random-%02d" i, run p))
  in
  named @ random

let record path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "(* GENERATED by `SF_PARITY_RECORD=1 dune exec test/main.exe -- test sim_parity`.\n\
    \   Signatures of the SEED engine on the scenarios in Test_sim_parity.cases;\n\
    \   the optimized engine must reproduce them bit-for-bit. Do not edit. *)\n\n\
     let expected : (string * string) list =\n  [\n";
  List.iter
    (fun (name, thunk) ->
      Buffer.add_string buf (Printf.sprintf "    (%S, %S);\n" name (signature (thunk ()))))
    cases;
  Buffer.add_string buf "  ]\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "recorded %d parity signatures to %s\n" (List.length cases) path

let test_parity () =
  match Sys.getenv_opt "SF_PARITY_RECORD" with
  | Some path ->
      let path =
        if String.contains path '/' then path
        else if Sys.file_exists "test/seed_parity_data.ml" then "test/seed_parity_data.ml"
        else "../../../test/seed_parity_data.ml"
      in
      record path
  | None ->
      if Seed_parity_data.expected = [] then
        Alcotest.fail "seed_parity_data.ml is empty - record it with SF_PARITY_RECORD=1";
      Alcotest.(check int)
        "case count matches recorded data" (List.length Seed_parity_data.expected)
        (List.length cases);
      List.iter
        (fun (name, thunk) ->
          match List.assoc_opt name Seed_parity_data.expected with
          | None -> Alcotest.failf "case %s missing from recorded seed data" name
          | Some expected ->
              Alcotest.(check string) (name ^ " matches the seed engine") expected
                (signature (thunk ())))
        cases

let suite = [ Alcotest.test_case "engine matches recorded seed behaviour" `Quick test_parity ]
