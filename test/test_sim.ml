open Sf_ir
module Engine = Sf_sim.Engine
module Telemetry = Sf_sim.Telemetry
module Interp = Sf_reference.Interp
module Tensor = Sf_reference.Tensor
module E = Builder.E

let cheap_config = Engine.Config.make ~latency:Sf_analysis.Latency.cheap ()

let check_validates ?config ?placement p () =
  match Engine.run_and_validate ?config ?placement p with
  | Ok _ -> ()
  | Error m -> Alcotest.fail (Sf_support.Diag.to_string m)

let test_cycle_count_matches_model () =
  let p = Fixtures.chain ~shape:[ 6; 10 ] ~n:3 () in
  match Engine.run_exn ~config:cheap_config p with
  | Engine.Deadlocked _ -> Alcotest.fail "unexpected deadlock"
  | Engine.Completed stats ->
      (* Eq. 1: C = L + N. The simulator adds a bounded per-hop overhead
         (reader/writer hand-off and flush visibility). *)
      let depth = 3 + 2 in
      Alcotest.(check bool)
        (Printf.sprintf "measured %d vs predicted %d" stats.Engine.cycles
           stats.Engine.predicted_cycles)
        true
        (stats.Engine.cycles >= stats.Engine.predicted_cycles
        && stats.Engine.cycles <= stats.Engine.predicted_cycles + (4 * depth) + 8)

let test_throughput_of_diamond () =
  (* With analysed buffers the diamond streams at full rate: the total
     runtime stays within a constant of L + N even though inputs reach c
     along paths of very different latency. *)
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 () in
  match Engine.run_exn ~config:cheap_config p with
  | Engine.Deadlocked _ -> Alcotest.fail "unexpected deadlock"
  | Engine.Completed stats ->
      Alcotest.(check bool) "no throughput collapse" true
        (stats.Engine.cycles <= stats.Engine.predicted_cycles + 40)

let test_deadlock_without_buffers () =
  (* Fig. 4: removing the delay buffer from the skip edge a -> c deadlocks
     the diamond once b's initialization exceeds the channel slack. *)
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 () in
  let config =
    {
      cheap_config with
      Engine.Config.override_edge_buffers = [ (("a", "c"), 0) ];
      Engine.Config.channel_slack = 2;
      Engine.Config.safety = Engine.Config.safety ~deadlock_window:256 ();
    }
  in
  match Engine.run_exn ~config p with
  | Engine.Completed _ -> Alcotest.fail "expected deadlock with zeroed skip buffer"
  | Engine.Deadlocked { blocked; wait_cycle; _ } ->
      Alcotest.(check bool) "diagnostics identify blockage" true (blocked <> []);
      (* The circular wait of Fig. 4: a -> c -> b -> a (in wait-for
         order), possibly entered through the reader. *)
      List.iter
        (fun participant ->
          Alcotest.(check bool)
            (participant ^ " in the wait cycle")
            true
            (List.exists (String.equal participant) wait_cycle))
        [ "a"; "b"; "c" ]

let test_deadlock_resolved_by_buffers () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 () in
  let config = { cheap_config with
      Engine.Config.channel_slack = 2;
      Engine.Config.safety = Engine.Config.safety ~deadlock_window:256 ();
    } in
  match Engine.run_and_validate ~config p with
  | Ok _ -> ()
  | Error m ->
      Alcotest.fail ("analysed buffers should prevent deadlock: " ^ Sf_support.Diag.to_string m)

let test_vector_width_equivalence () =
  let inputs = Interp.random_inputs (Fixtures.chain ~shape:[ 4; 16 ] ~n:3 ~vector_width:1 ()) in
  let run w =
    let p = Fixtures.chain ~shape:[ 4; 16 ] ~n:3 ~vector_width:w () in
    match Engine.run_exn ~config:cheap_config ~inputs p with
    | Engine.Deadlocked _ -> Alcotest.fail "deadlock"
    | Engine.Completed stats -> (List.assoc "f3" stats.Engine.results).Interp.tensor
  in
  let base = run 1 in
  List.iter
    (fun w ->
      let t = run w in
      Alcotest.(check bool)
        (Printf.sprintf "W=%d matches W=1" w)
        true
        (Tensor.max_abs_diff base t < 1e-12))
    [ 2; 4 ]

let test_vectorization_reduces_cycles () =
  let cycles w =
    let p = Fixtures.chain ~shape:[ 8; 32 ] ~n:3 ~vector_width:w () in
    match Engine.run_exn ~config:cheap_config p with
    | Engine.Deadlocked _ -> Alcotest.fail "deadlock"
    | Engine.Completed stats -> stats.Engine.cycles
  in
  let c1 = cycles 1 and c4 = cycles 4 in
  Alcotest.(check bool)
    (Printf.sprintf "W=4 (%d cycles) is ~4x faster than W=1 (%d cycles)" c4 c1)
    true
    (float_of_int c1 /. float_of_int c4 > 3.)

let test_multi_device_chain () =
  (* Stages 1-2 on device 0, stages 3-4 on device 1 (Fig. 5). *)
  let p = Fixtures.chain ~shape:[ 6; 10 ] ~n:4 () in
  let placement name =
    match name with "f1" | "f2" -> 0 | "f3" | "f4" -> 1 | _ -> 0
  in
  let config = { cheap_config with Engine.Config.network = Engine.Config.network ~net_latency_cycles:16 () } in
  (match Engine.run_and_validate ~config ~placement p with
  | Ok stats ->
      Alcotest.(check bool) "network used" true (stats.Engine.network_bytes > 0)
  | Error m -> Alcotest.fail (Sf_support.Diag.to_string m));
  match Engine.run_and_validate ~config p with
  | Ok stats -> Alcotest.(check int) "single device uses no network" 0 stats.Engine.network_bytes
  | Error m -> Alcotest.fail (Sf_support.Diag.to_string m)

let test_network_bandwidth_limits_throughput () =
  let p = Fixtures.chain ~shape:[ 16; 48 ] ~n:2 () in
  let placement = function "f2" -> 1 | _ -> 0 in
  let dtype_bytes = 4 in
  let run net =
    let config =
      {
        cheap_config with
        Engine.Config.network =
          Engine.Config.network ~net_bytes_per_cycle:net ~net_latency_cycles:4 ();
      }
    in
    match Engine.run_exn ~config ~placement p with
    | Engine.Deadlocked _ -> Alcotest.fail "deadlock"
    | Engine.Completed stats -> stats.Engine.cycles
  in
  let fast = run (float_of_int dtype_bytes) in
  let slow = run (float_of_int dtype_bytes /. 2.) in
  Alcotest.(check bool)
    (Printf.sprintf "halving link bandwidth ~doubles runtime (%d -> %d)" fast slow)
    true
    (float_of_int slow /. float_of_int fast > 1.6)

let test_memory_bandwidth_limits_throughput () =
  let p = Fixtures.laplace2d ~shape:[ 16; 64 ] () in
  let run bw =
    let config =
      { cheap_config with
        Engine.Config.bandwidth = Engine.Config.bandwidth ~mem_bytes_per_cycle:bw () }
    in
    match Engine.run_exn ~config p with
    | Engine.Deadlocked _ -> Alcotest.fail "deadlock"
    | Engine.Completed stats -> stats.Engine.cycles
  in
  let unconstrained = run infinity in
  (* laplace2d streams 1 read + 1 write of 4 B per cycle = 8 B/cycle. *)
  let constrained = run 4. in
  Alcotest.(check bool)
    (Printf.sprintf "half the needed bandwidth ~halves throughput (%d -> %d)" unconstrained
       constrained)
    true
    (float_of_int constrained /. float_of_int unconstrained > 1.7)

let test_bytes_accounting () =
  let p = Fixtures.kitchen_sink ~shape:[ 4; 6; 8 ] () in
  match Engine.run_exn ~config:cheap_config p with
  | Engine.Deadlocked _ -> Alcotest.fail "deadlock"
  | Engine.Completed stats ->
      let counts = Sf_analysis.Op_count.of_program p in
      Alcotest.(check int) "reads match the perfect-reuse model"
        counts.Sf_analysis.Op_count.read_bytes stats.Engine.bytes_read;
      (* The output is shrunk, so strictly fewer bytes are written than
         cells exist. *)
      Alcotest.(check bool) "shrink writes fewer bytes" true
        (stats.Engine.bytes_written < counts.Sf_analysis.Op_count.written_bytes);
      Alcotest.(check bool) "writes happen" true (stats.Engine.bytes_written > 0)

let test_high_water_within_capacity () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:4 () in
  match Engine.run_exn ~config:cheap_config p with
  | Engine.Deadlocked _ -> Alcotest.fail "deadlock"
  | Engine.Completed stats ->
      List.iter
        (fun (name, high, cap) ->
          Alcotest.(check bool) (name ^ " within capacity") true (high <= cap))
        (Telemetry.channel_high_water stats.Engine.telemetry);
      (* The skip edge actually used its delay buffer. *)
      let skip =
        List.find
          (fun (name, _, _) -> String.equal name "a->c")
          (Telemetry.channel_high_water stats.Engine.telemetry)
      in
      let _, high, _ = skip in
      Alcotest.(check bool) "skip edge buffered data" true (high > 1)

(* Property: on a family of random programs, the streamed results equal
   the sequential reference exactly (modulo float tolerance). *)
let random_program_gen =
  QCheck.Gen.(
    let* kind = int_range 0 3 in
    match kind with
    | 0 ->
        let* n = int_range 1 4 in
        let* w = oneofl [ 1; 2 ] in
        return (Fixtures.chain ~shape:[ 4; 8 ] ~n ~vector_width:w ())
    | 1 ->
        let* span = int_range 1 4 in
        return (Fixtures.diamond ~shape:[ 4; 12 ] ~span ())
    | 2 ->
        let* w = oneofl [ 1; 2; 4 ] in
        return (Fixtures.kitchen_sink ~shape:[ 3; 4; 8 ] ~vector_width:w ())
    | _ -> return (Fixtures.fork ~shape:[ 6; 6 ] ()))

let prop_sim_matches_reference =
  QCheck.Test.make ~count:40 ~name:"simulator output equals reference interpreter"
    (QCheck.make ~print:(fun p -> p.Program.name) random_program_gen) (fun p ->
      match Engine.run_and_validate ~config:cheap_config p with Ok _ -> true | Error _ -> false)

let test_buffer_tightness () =
  (* The analysed depth is load-bearing: halving the skip-edge buffer
     costs throughput (the join stalls), while the full buffer streams at
     the modelled rate. *)
  let p = Fixtures.diamond ~shape:[ 16; 32 ] ~span:8 () in
  let analysis = Sf_analysis.Delay_buffer.analyze ~config:Sf_analysis.Latency.cheap p in
  let full = Sf_analysis.Delay_buffer.buffer_for analysis ~src:"a" ~dst:"c" in
  let run buffer =
    let config =
      {
        cheap_config with
        Engine.Config.override_edge_buffers = [ (("a", "c"), buffer) ];
        Engine.Config.channel_slack = 2;
      }
    in
    match Engine.run_exn ~config p with
    | Engine.Deadlocked _ -> max_int
    | Engine.Completed stats -> stats.Engine.cycles
  in
  let with_full = run full and with_half = run (full / 2) in
  Alcotest.(check bool)
    (Printf.sprintf "halved buffer is slower or deadlocks (%d vs %d)" with_half with_full)
    true
    (with_half > with_full + 5)

let test_trace_sampling () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:4 () in
  let config =
    { cheap_config with Engine.Config.tracing = Engine.Config.tracing ~trace_interval:8 () }
  in
  match Engine.run_exn ~config p with
  | Engine.Deadlocked _ -> Alcotest.fail "deadlock"
  | Engine.Completed stats ->
      Alcotest.(check bool) "samples collected" true (List.length stats.Engine.telemetry.Telemetry.samples > 2);
      let expected = (stats.Engine.cycles / 8) + 1 in
      Alcotest.(check bool) "one sample per interval" true
        (abs (List.length stats.Engine.telemetry.Telemetry.samples - expected) <= 1);
      List.iter
        (fun (cycle, occupancies) ->
          Alcotest.(check int) "aligned" 0 (cycle mod 8);
          List.iter
            (fun (name, occ) ->
              let _, _, cap =
                List.find
                  (fun (n, _, _) -> String.equal n name)
                  (Telemetry.channel_high_water stats.Engine.telemetry)
              in
              Alcotest.(check bool) (name ^ " within capacity") true (occ >= 0 && occ <= cap))
            occupancies)
        stats.Engine.telemetry.Telemetry.samples;
      (* The skip-edge buffer visibly fills during the run. *)
      let peak =
        List.fold_left
          (fun acc (_, occupancies) ->
            match List.assoc_opt "a->c" occupancies with Some o -> max acc o | None -> acc)
          0 stats.Engine.telemetry.Telemetry.samples
      in
      Alcotest.(check bool) "skip edge fills" true (peak > 1)

(* Window coverage: how many of a run's cycles the engine's one
   scheduler advanced in fast-forward windows, pinned on the quick
   shapes of the benchmark's chain-sim (one device) and pdes-2dev (two
   devices, one link of latency 128), so a change that keeps windows
   from applying fails here and not only in the benchmark. *)
let windowed_cycles ~config ~placement p =
  let module I = Engine.Internal in
  let windowed = ref 0 in
  let outcome =
    I.simulate ~config ~placement ~inputs:(Interp.random_inputs p) p
      ~drive:(fun system injector finished ->
        let s = I.scheduler ~config ?injector ~finished system in
        s.I.advance ~limit:max_int;
        windowed := s.I.windowed ();
        (s.I.now (), s.I.deadlocked (), s.I.samples ()))
  in
  match outcome with
  | Engine.Completed stats -> (stats.Engine.cycles, !windowed)
  | Engine.Deadlocked { cycle; _ } -> Alcotest.failf "deadlocked at cycle %d" cycle

let test_window_coverage () =
  let config =
    Engine.Config.make ~network:(Engine.Config.network ~net_latency_cycles:128 ()) ()
  in
  let chain ~shape ~length = Sf_kernels.Iterative.(chain ~shape Jacobi2d ~length) in
  let check name ~placement p ~cycles ~windowed =
    Alcotest.(check (pair int int))
      (name ^ ": cycles, windowed cycles")
      (cycles, windowed)
      (windowed_cycles ~config ~placement p)
  in
  check "chain-sim quick" ~placement:(fun _ -> 0)
    (chain ~shape:[ 32; 32 ] ~length:8)
    ~cycles:1_801 ~windowed:1_783;
  let p = chain ~shape:[ 32; 64 ] ~length:8 in
  let placement =
    match Sf_mapping.Partition.contiguous ~devices:2 p with
    | Ok pt -> Sf_mapping.Partition.placement_fn pt
    | Error d -> Alcotest.fail d.Sf_support.Diag.message
  in
  check "pdes-2dev quick, sequential" ~placement p ~cycles:3_465 ~windowed:3_445

let suite =
  [
    Alcotest.test_case "laplace validates against reference" `Quick
      (check_validates ~config:cheap_config (Fixtures.laplace2d ()));
    Alcotest.test_case "kitchen sink validates (bcs, shrink, lower-dim)" `Quick
      (check_validates ~config:cheap_config (Fixtures.kitchen_sink ()));
    Alcotest.test_case "fork with two outputs validates" `Quick
      (check_validates ~config:cheap_config (Fixtures.fork ()));
    Alcotest.test_case "cycle count matches C = L + N" `Quick test_cycle_count_matches_model;
    Alcotest.test_case "diamond streams at full throughput" `Quick test_throughput_of_diamond;
    Alcotest.test_case "fig 4: deadlock without delay buffers" `Quick test_deadlock_without_buffers;
    Alcotest.test_case "fig 4: analysed buffers prevent deadlock" `Quick
      test_deadlock_resolved_by_buffers;
    Alcotest.test_case "vector widths compute identical results" `Quick
      test_vector_width_equivalence;
    Alcotest.test_case "vectorization speeds up the pipeline" `Quick
      test_vectorization_reduces_cycles;
    Alcotest.test_case "multi-device chain validates (fig 5)" `Quick test_multi_device_chain;
    Alcotest.test_case "network bandwidth bound" `Quick test_network_bandwidth_limits_throughput;
    Alcotest.test_case "memory bandwidth bound" `Quick test_memory_bandwidth_limits_throughput;
    Alcotest.test_case "byte accounting matches perfect reuse" `Quick test_bytes_accounting;
    Alcotest.test_case "channel high-water within capacity" `Quick test_high_water_within_capacity;
    Alcotest.test_case "occupancy trace sampling" `Quick test_trace_sampling;
    Alcotest.test_case "delay buffers are load-bearing" `Quick test_buffer_tightness;
    Alcotest.test_case "fast-forward windows cover the benchmark shapes" `Quick
      test_window_coverage;
    QCheck_alcotest.to_alcotest prop_sim_matches_reference;
  ]
