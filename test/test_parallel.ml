(* Cross-engine parity for the domain-parallel simulator: every
   observable of a parallel run — cycle count, outputs, stall totals,
   high-water marks, byte/network accounting, deadlock diagnoses — must
   be bit-identical to the sequential engine on the same placement and
   inputs ([Test_sim_parity.signature] fingerprints all of them). Also
   pins the [Parallel.decide] policy: when parallel execution runs, when
   it degrades to the sequential path, and when the configuration is
   rejected outright (SF0704). *)
module Engine = Sf_sim.Engine
module Parallel = Sf_sim.Parallel
module Telemetry = Sf_sim.Telemetry
module Interp = Sf_reference.Interp
module Diag = Sf_support.Diag
module Program = Sf_ir.Program

let cheap = Test_sim_parity.cheap_config

let parallelize config =
  {
    config with
    Engine.Config.parallelism = Engine.Config.parallelism ~mode:`Domains_per_device ();
  }

(* The three multi-device scenarios of the engine parity fixture, under
   the same configs, so the parallel engine is pinned to the exact seed
   signatures the sequential engine is pinned to. *)
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
  let seq = Engine.run_exn ~config ~placement ~inputs p in
  let par = Parallel.run_exn ~config:(parallelize config) ~placement ~inputs p in
  Alcotest.(check string)
    (name ^ ": parallel matches sequential")
    (Test_sim_parity.signature seq)
    (Test_sim_parity.signature par)

let test_chain_parity () =
  check_parity ~config:chain_config ~placement:chain_placement "multi-device-chain"
    (Fixtures.chain ~shape:[ 6; 10 ] ~n:4 ())

(* Three devices at a 128-cycle lookahead: the last device waits for its
   first word across many sync horizons, so its quiescence jumps are cut
   at every horizon and must still land on the sequential cycle. *)
let test_three_device_sleeper_parity () =
  let config =
    { cheap with Engine.Config.network = Engine.Config.network ~net_latency_cycles:128 () }
  in
  let placement = function "f1" | "f2" -> 0 | "f3" | "f4" -> 1 | _ -> 2 in
  let p = Fixtures.chain ~shape:[ 6; 10 ] ~n:6 () in
  (match Parallel.decide ~config:(parallelize config) ~placement p with
  | `Parallel n -> Alcotest.(check int) "three domains" 3 n
  | `Degrade r -> Alcotest.failf "unexpected degrade: %s" r
  | `Reject d -> Alcotest.failf "unexpected reject: %s" d.Diag.message);
  check_parity ~config ~placement "three-device-chain-l128" p

(* Finite link bandwidth on a forward-only cut: the per-cycle grant
   denials at the domain boundary must land on the same cycles as in the
   sequential engine (visible through stall totals and cycle count). *)
let test_net_capped_parity () =
  check_parity ~config:net_capped_config
    ~placement:(function "f2" -> 1 | _ -> 0)
    "net-capped-chain"
    (Fixtures.chain ~shape:[ 8; 24 ] ~n:2 ())

(* An under-buffered diamond split across two devices: the parallel run
   goes stuck, re-runs sequentially, and must reproduce the sequential
   engine's SF0701 diagnosis verbatim (blocked set and circular wait). *)
let test_deadlock_parity () =
  check_parity ~config:deadlock_config
    ~placement:(function "a" | "b" -> 0 | _ -> 1)
    "deadlock-diamond-2dev"
    (Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 ())

(* The merged per-device counter registries must serialize to the exact
   same counters document the sequential registry produces. *)
let test_counters_reconcile () =
  let p = Fixtures.chain ~shape:[ 6; 10 ] ~n:4 () in
  let inputs = Interp.random_inputs p in
  let stats = function
    | Engine.Completed s -> s
    | Engine.Deadlocked _ -> Alcotest.fail "unexpected deadlock"
  in
  let seq = stats (Engine.run_exn ~config:chain_config ~placement:chain_placement ~inputs p) in
  let par =
    stats
      (Parallel.run_exn ~config:(parallelize chain_config) ~placement:chain_placement ~inputs p)
  in
  Alcotest.(check string)
    "counters JSON identical"
    (Sf_support.Json.to_string (Telemetry.counters_json seq.Engine.telemetry))
    (Sf_support.Json.to_string (Telemetry.counters_json par.Engine.telemetry))

(* Finite memory bandwidth on two devices at a 128-cycle lookahead:
   after a grant, a device can fall asleep and jump while the other one
   keeps running. The jump must leave the memory budget exactly where
   cycle-by-cycle refills would, so the sequential engine matches the
   oracle's every-cycle schedule and the parallel one matches both. The
   programs are ones where a jump without the catch-up refill differs. *)
let test_memory_capped_jumps () =
  let programs =
    Array.of_list
      (QCheck.Gen.generate ~n:3000
         ~rand:(Random.State.make [| 0x5eed |])
         Program_gen.adversarial_program_gen)
  in
  List.iter
    (fun (i, mem_bytes_per_cycle) ->
      let p = programs.(i) in
      let placement name = Hashtbl.hash name mod 2 in
      let config =
        {
          cheap with
          Engine.Config.network = Engine.Config.network ~net_latency_cycles:128 ();
          Engine.Config.bandwidth = Engine.Config.bandwidth ~mem_bytes_per_cycle ();
        }
      in
      let inputs = Interp.random_inputs p in
      let seq = Test_sim_parity.signature (Engine.run_exn ~config ~placement ~inputs p) in
      let name = Printf.sprintf "program %d at %g B/cycle" i mem_bytes_per_cycle in
      Alcotest.(check string)
        (name ^ ": sequential matches the oracle")
        (Test_sim_parity.signature (Oracle.run_exn ~config ~placement ~inputs p))
        seq;
      Alcotest.(check string)
        (name ^ ": parallel matches sequential")
        seq
        (Test_sim_parity.signature
           (Parallel.run_exn ~config:(parallelize config) ~placement ~inputs p)))
    [ (139, 4.); (343, 4.); (649, 2.); (651, 4.) ]

(* ------------------------------------------------------------------ *)
(* decide: the policy surface.                                         *)
(* ------------------------------------------------------------------ *)

let two_dev = function "f1" -> 0 | _ -> 1

let test_decide_parallel () =
  let p = Fixtures.chain ~n:2 () in
  match Parallel.decide ~config:(parallelize cheap) ~placement:two_dev p with
  | `Parallel n -> Alcotest.(check int) "two domains" 2 n
  | `Degrade r -> Alcotest.failf "unexpected degrade: %s" r
  | `Reject d -> Alcotest.failf "unexpected reject: %s" d.Diag.message

let test_decide_sequential_mode () =
  let p = Fixtures.chain ~n:2 () in
  match Parallel.decide ~config:cheap ~placement:two_dev p with
  | `Degrade _ -> ()
  | `Parallel _ | `Reject _ -> Alcotest.fail "sequential mode must degrade"

(* All stencils on one device: no domains to spawn, no lookahead needed —
   the parallel path must fall through to the sequential engine. *)
let test_decide_single_device () =
  let p = Fixtures.chain ~n:2 () in
  match Parallel.decide ~config:(parallelize cheap) ~placement:(fun _ -> 0) p with
  | `Degrade _ -> ()
  | `Parallel _ | `Reject _ -> Alcotest.fail "single-device placement must degrade"

(* Opposite-direction traffic between one device pair sharing a finite
   link budget: per-direction controllers could not reproduce the
   sequential arbitration, so the decision must be to degrade. *)
let test_decide_bidirectional_capped () =
  let p = Fixtures.diamond ~span:5 () in
  let config =
    parallelize
      {
        cheap with
        Engine.Config.network =
          Engine.Config.network ~net_bytes_per_cycle:8. ~net_latency_cycles:8 ();
      }
  in
  let placement = function "b" -> 1 | _ -> 0 in
  (match Parallel.decide ~config ~placement p with
  | `Degrade _ -> ()
  | `Parallel _ | `Reject _ -> Alcotest.fail "bidirectional capped pair must degrade");
  (* ... and the degraded run still matches the sequential engine. *)
  check_parity
    ~config:
      {
        cheap with
        Engine.Config.network =
          Engine.Config.network ~net_bytes_per_cycle:8. ~net_latency_cycles:8 ();
      }
    ~placement "bidirectional-capped" p

(* Zero-latency links leave no lookahead: the configuration is invalid
   for parallel execution and must be rejected (SF0704), not silently
   degraded — run surfaces the Diag, run_exn raises. *)
let test_zero_latency_rejected () =
  let p = Fixtures.chain ~n:2 () in
  let config =
    parallelize
      { cheap with Engine.Config.network = Engine.Config.network ~net_latency_cycles:0 () }
  in
  (match Parallel.decide ~config ~placement:two_dev p with
  | `Reject d -> Alcotest.(check string) "code" Diag.Code.sim_config d.Diag.code
  | `Parallel _ | `Degrade _ -> Alcotest.fail "zero-latency links must be rejected");
  (match Parallel.run ~config ~placement:two_dev p with
  | Error d -> Alcotest.(check string) "run code" Diag.Code.sim_config d.Diag.code
  | Ok _ -> Alcotest.fail "run must fail on zero-latency links");
  match Parallel.run_exn ~config ~placement:two_dev p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run_exn must raise on zero-latency links"

(* ------------------------------------------------------------------ *)
(* Property: parity holds for random programs and random placements.   *)
(* ------------------------------------------------------------------ *)

let prop_random_parity =
  QCheck.Test.make ~count:10 ~name:"random programs: parallel equals sequential"
    QCheck.(
      quad Program_gen.arbitrary_program (int_range 2 4) (oneofl [ 1; 8; 128 ])
        (oneofl [ infinity; 4.; 16.; 33. ]))
    (fun (p, devices, net_latency_cycles, net_bytes_per_cycle) ->
      (* Deterministic pseudo-random placement over [devices] devices;
         decide may still degrade (e.g. a capped budget over a
         bidirectional cut) — parity must hold either way. Latencies
         range from one-cycle advances to advances longer than a small
         program's stream; a capped one-direction budget is granted by
         each direction's own controller, in windows too. *)
      let placement name = Hashtbl.hash name mod devices in
      let config =
        {
          cheap with
          Engine.Config.network = Engine.Config.network ~net_bytes_per_cycle ~net_latency_cycles ();
        }
      in
      let inputs = Interp.random_inputs p in
      let seq = Engine.run_exn ~config ~placement ~inputs p in
      let par = Parallel.run_exn ~config:(parallelize config) ~placement ~inputs p in
      Test_sim_parity.signature seq = Test_sim_parity.signature par)

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
    Alcotest.test_case "decide: multi-device goes parallel" `Quick test_decide_parallel;
    Alcotest.test_case "decide: sequential mode degrades" `Quick test_decide_sequential_mode;
    Alcotest.test_case "decide: single device degrades" `Quick test_decide_single_device;
    Alcotest.test_case "decide: bidirectional capped pair degrades" `Quick
      test_decide_bidirectional_capped;
    Alcotest.test_case "zero-latency links rejected (SF0704)" `Quick test_zero_latency_rejected;
    QCheck_alcotest.to_alcotest prop_random_parity;
  ]
