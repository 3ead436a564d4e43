(* Multi-device parity against the oracle (test/oracle.ml, the seed's
   every-cycle schedule): every observable of a run across links —
   cycle count, outputs, stall totals, high-water marks, byte/network
   accounting, deadlock diagnoses — must be bit-identical to the
   oracle's on the same placement and inputs
   ([Test_sim_parity.signature] fingerprints all of them). *)
module Engine = Sf_sim.Engine
module Telemetry = Sf_sim.Telemetry
module Interp = Sf_reference.Interp

let cheap = Test_sim_parity.cheap_config

(* The three multi-device scenarios of the engine parity fixture, under
   the same configs. *)
let chain_config =
  { cheap with Engine.Config.network = Engine.Config.network ~net_latency_cycles:16 () }

let chain_placement = function "f1" | "f2" -> 0 | _ -> 1

let net_capped_config =
  {
    cheap with
    Engine.Config.network =
      Engine.Config.network ~net_bytes_per_cycle:2. ~net_latency_cycles:4 ();
  }

let deadlock_config =
  {
    cheap with
    Engine.Config.override_edge_buffers = [ (("a", "c"), 0) ];
    Engine.Config.channel_slack = 2;
    Engine.Config.safety = Engine.Config.safety ~deadlock_window:256 ();
  }

let check_parity ?(config = cheap) ~placement name p =
  let inputs = Interp.random_inputs p in
  Alcotest.(check string)
    (name ^ ": engine matches the oracle")
    (Test_sim_parity.signature (Oracle.run_exn ~config ~placement ~inputs p))
    (Test_sim_parity.signature (Engine.run_exn ~config ~placement ~inputs p))

let test_chain_parity () =
  check_parity ~config:chain_config ~placement:chain_placement "multi-device-chain"
    (Fixtures.chain ~shape:[ 6; 10 ] ~n:4 ())

(* Three devices over 128-cycle links: the last device waits for its
   first word for hundreds of cycles, which quiescence jumps and windows
   must skip without moving any observable. *)
let test_three_device_sleeper_parity () =
  let config =
    { cheap with Engine.Config.network = Engine.Config.network ~net_latency_cycles:128 () }
  in
  let placement = function "f1" | "f2" -> 0 | "f3" | "f4" -> 1 | _ -> 2 in
  let p = Fixtures.chain ~shape:[ 6; 10 ] ~n:6 () in
  check_parity ~config ~placement "three-device-chain-l128" p

(* Finite link bandwidth: the grant denials at the device boundary must
   land on the same cycles as in the oracle (visible through stall
   totals and cycle count), on a forward-only cut and on a diamond cut
   with traffic both ways. *)
let test_net_capped_parity () =
  check_parity ~config:net_capped_config
    ~placement:(function "f2" -> 1 | _ -> 0)
    "net-capped-chain"
    (Fixtures.chain ~shape:[ 8; 24 ] ~n:2 ());
  (* Opposite-direction traffic between one device pair shares the
     link's budget in port order. *)
  check_parity
    ~config:
      {
        cheap with
        Engine.Config.network =
          Engine.Config.network ~net_bytes_per_cycle:8. ~net_latency_cycles:8 ();
      }
    ~placement:(function "b" -> 1 | _ -> 0)
    "bidirectional-capped" (Fixtures.diamond ~span:5 ())

(* An under-buffered diamond split across two devices must reproduce the
   oracle's SF0701 diagnosis verbatim (blocked set and circular wait). *)
let test_deadlock_parity () =
  check_parity ~config:deadlock_config
    ~placement:(function "a" | "b" -> 0 | _ -> 1)
    "deadlock-diamond-2dev"
    (Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 ())

(* The link rows and every other counter must serialize to the exact
   same counters document the oracle's run produces. *)
let test_counters_reconcile () =
  let p = Fixtures.chain ~shape:[ 6; 10 ] ~n:4 () in
  let inputs = Interp.random_inputs p in
  let config = chain_config and placement = chain_placement in
  let counters = function
    | Engine.Completed s -> Sf_support.Json.to_string (Telemetry.counters_json s.Engine.telemetry)
    | Engine.Deadlocked _ -> Alcotest.fail "unexpected deadlock"
  in
  Alcotest.(check string)
    "counters JSON identical"
    (counters (Oracle.run_exn ~config ~placement ~inputs p))
    (counters (Engine.run_exn ~config ~placement ~inputs p))

(* Finite memory bandwidth on two devices over 128-cycle links: after a
   grant, a device's components can fall asleep while the other device
   keeps running. A quiescence jump must leave the memory budget exactly
   where cycle-by-cycle refills would, so the engine matches the
   oracle's every-cycle schedule. The programs are ones where a jump
   without the catch-up refill differs. *)
let test_memory_capped_jumps () =
  let programs =
    Array.of_list
      (QCheck.Gen.generate ~n:3000
         ~rand:(Random.State.make [| 0x5eed |])
         Program_gen.adversarial_program_gen)
  in
  List.iter
    (fun (i, mem_bytes_per_cycle) ->
      let placement name = Hashtbl.hash name mod 2 in
      let config =
        {
          cheap with
          Engine.Config.network = Engine.Config.network ~net_latency_cycles:128 ();
          Engine.Config.bandwidth = Engine.Config.bandwidth ~mem_bytes_per_cycle ();
        }
      in
      check_parity ~config ~placement
        (Printf.sprintf "program %d at %g B/cycle" i mem_bytes_per_cycle)
        programs.(i))
    [ (139, 4.); (343, 4.); (649, 2.); (651, 4.) ]

let suite =
  [
    Alcotest.test_case "multi-device chain parity" `Quick test_chain_parity;
    Alcotest.test_case "three-device chain parity at latency 128" `Quick
      test_three_device_sleeper_parity;
    Alcotest.test_case "net-capped boundary parity" `Quick test_net_capped_parity;
    Alcotest.test_case "cross-device deadlock parity" `Quick test_deadlock_parity;
    Alcotest.test_case "telemetry counters reconcile" `Quick test_counters_reconcile;
    Alcotest.test_case "memory-capped quiescence jumps match the oracle" `Quick
      test_memory_capped_jumps;
  ]
