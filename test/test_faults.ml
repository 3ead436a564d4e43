(* Deterministic fault injection and adversarial deadlock-freedom
   validation. The paper's latency-insensitivity claim (Sec. IV-B) says
   the analysed delay-buffer depths tolerate ANY timing: a seeded fault
   campaign must complete bit-identical to the unperturbed run, and the
   only way to manufacture a deadlock is to shrink a channel capacity —
   which the under-provisioning probe does, expecting an SF0701 with
   fault-attribution notes, and which the shrinker then reduces to an
   event-free minimal counterexample (Kahn networks deadlock on
   capacities, never on timing). *)
module Engine = Sf_sim.Engine
module Fault_plan = Sf_sim.Fault_plan
module Faults = Sf_sim.Faults
module Interp = Sf_reference.Interp
module Diag = Sf_support.Diag

let cheap = Engine.Config.make ~latency:Sf_analysis.Latency.cheap ()

(* Deadlock detection only has to outlast the longest injected burst
   (default plan durations are <= 24 cycles), so a small window keeps
   the adversarial runs fast without risking a spurious SF0701. *)
let quick =
  { cheap with Engine.Config.safety = Engine.Config.safety ~deadlock_window:256 () }

let with_plan ?(seed = 1) config plan =
  { config with Engine.Config.faults = Engine.Config.faults ~plan ~seed () }

let fixtures =
  [
    ("laplace2d", Fixtures.laplace2d ());
    ("diamond", Fixtures.diamond ());
    ("chain", Fixtures.chain ());
    ("kitchen_sink", Fixtures.kitchen_sink ());
    ("fork", Fixtures.fork ());
  ]

(* {2 PRNG} *)

let test_rng_deterministic () =
  let a = Fault_plan.Rng.make 42 and b = Fault_plan.Rng.make 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Fault_plan.Rng.bits64 a)
      (Fault_plan.Rng.bits64 b)
  done;
  let c = Fault_plan.Rng.make 43 in
  Alcotest.(check bool) "different seed diverges" true
    (Fault_plan.Rng.bits64 a <> Fault_plan.Rng.bits64 c)

let test_rng_split () =
  let root = Fault_plan.Rng.make 7 in
  let a = Fault_plan.Rng.split root "link-stall/0" in
  let a' = Fault_plan.Rng.split root "link-stall/0" in
  let b = Fault_plan.Rng.split root "link-stall/1" in
  let va = Fault_plan.Rng.bits64 a and va' = Fault_plan.Rng.bits64 a' in
  Alcotest.(check int64) "split does not consume the parent" va va';
  Alcotest.(check bool) "sibling splits are independent" true
    (va <> Fault_plan.Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Fault_plan.Rng.make 5 in
  for _ = 1 to 1000 do
    let v = Fault_plan.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

(* {2 Plan syntax} *)

let test_plan_roundtrip () =
  let check plan =
    let s = Fault_plan.to_string plan in
    match Fault_plan.of_string s with
    | Error m -> Alcotest.failf "round-trip of %S failed: %s" s m
    | Ok plan' -> Alcotest.(check string) "canonical form is a fixpoint" s
                    (Fault_plan.to_string plan')
  in
  check Fault_plan.default;
  check Fault_plan.none;
  check
    (Fault_plan.plan
       ~bursts:[ Fault_plan.Burst.make ~target:"a" ~gap:50 ~duration:4 ~count:2 Fault_plan.Link_stall ]
       ~events:
         [
           {
             Fault_plan.Event.kind = Fault_plan.Unit_hiccup;
             target = "b";
             start = 17;
             duration = 3;
             magnitude = 1;
           };
         ]
       ~depth_overrides:[ (("a", "c"), 9) ]
       ())

let test_plan_parse_errors () =
  (match Fault_plan.of_string "warp-core-breach:gap=3" with
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error _ -> ());
  match Fault_plan.of_string "depth:nonsense" with
  | Ok _ -> Alcotest.fail "malformed depth override accepted"
  | Error _ -> ()

(* {2 Injection determinism} *)

let test_injection_deterministic () =
  let p = Fixtures.diamond () in
  let inputs = Interp.random_inputs p in
  let run () =
    match Engine.run ~config:(with_plan ~seed:3 quick Fault_plan.default) ~inputs p with
    | Error d -> Alcotest.failf "injected run failed: %s" (Diag.to_string d)
    | Ok stats -> stats
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same cycles" a.Engine.cycles b.Engine.cycles;
  Alcotest.(check int) "same injected events" a.Engine.faults.Fault_plan.injected_events
    b.Engine.faults.Fault_plan.injected_events;
  Alcotest.(check int) "same injected stall cycles"
    a.Engine.faults.Fault_plan.injected_stall_cycles
    b.Engine.faults.Fault_plan.injected_stall_cycles;
  Alcotest.(check bool) "same event log" true
    (a.Engine.faults.Fault_plan.log = b.Engine.faults.Fault_plan.log);
  Alcotest.(check bool) "faults were actually injected" true
    (a.Engine.faults.Fault_plan.injected_events > 0)

let test_seed_changes_timeline () =
  let p = Fixtures.diamond () in
  let inputs = Interp.random_inputs p in
  let log seed =
    match Engine.run ~config:(with_plan ~seed quick Fault_plan.default) ~inputs p with
    | Error d -> Alcotest.failf "injected run failed: %s" (Diag.to_string d)
    | Ok stats -> stats.Engine.faults.Fault_plan.log
  in
  Alcotest.(check bool) "different seeds, different timelines" true (log 1 <> log 2)

(* {2 Campaigns: the latency-insensitivity claim} *)

let test_campaign_bit_identical () =
  List.iter
    (fun (name, p) ->
      match Faults.campaign ~config:quick ~schedules:25 p with
      | Error d -> Alcotest.failf "%s: baseline failed: %s" name (Diag.to_string d)
      | Ok report ->
          List.iter
            (fun (r, d) ->
              Alcotest.failf "%s: seed %d FAILED: %s" name r.Faults.seed (Diag.to_string d))
            (Faults.failures report);
          Alcotest.(check int) (name ^ ": all schedules ran") 25
            (List.length report.Faults.runs);
          (* The perturbations must be real, not vacuous. (Per-seed would
             be too strong: a run shorter than the drawn first gap
             legitimately injects nothing.) *)
          let injected =
            List.fold_left
              (fun acc r -> acc + r.Faults.faults.Fault_plan.injected_events)
              0 report.Faults.runs
          in
          Alcotest.(check bool) (name ^ ": campaign injected faults") true (injected > 0))
    fixtures

let test_campaign_slows_runs () =
  let p = Fixtures.diamond () in
  match Faults.campaign ~config:quick ~schedules:5 p with
  | Error d -> Alcotest.failf "baseline failed: %s" (Diag.to_string d)
  | Ok report ->
      List.iter
        (fun r ->
          match r.Faults.outcome with
          | Faults.Failed d -> Alcotest.failf "seed %d: %s" r.Faults.seed (Diag.to_string d)
          | Faults.Identical cycles ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: stalls cost cycles" r.Faults.seed)
                true
                (cycles > report.Faults.baseline_cycles))
        report.Faults.runs

(* {2 Under-provisioning: the adversarial converse} *)

let diamond_probe =
  lazy
    (let p = Fixtures.diamond () in
     Faults.probe_tightest ~config:quick (Engine.prepare_program ~config:quick p))

let test_probe_finds_tight_capacity () =
  match Lazy.force diamond_probe with
  | None -> Alcotest.fail "diamond has no tight edge"
  | Some probe ->
      let src, dst = probe.Faults.edge in
      Alcotest.(check string) "tightest edge source" "a" src;
      Alcotest.(check string) "tightest edge destination" "c" dst;
      (match probe.Faults.tight_capacity with
      | None -> Alcotest.fail "skip edge a->c must be load-bearing"
      | Some tight ->
          Alcotest.(check bool) "deadlocks strictly below analysed provisioning" true
            (tight < probe.Faults.analysed_depth + quick.Engine.Config.channel_slack);
          (* b reads a at +/-span (span 3): b consumes span-and-a-bit
             words of a before its first emit, so a->c deadlocks once it
             cannot hold that prefix. Pinned so a provisioning regression
             moves a number, not just a boolean. *)
          Alcotest.(check int) "pinned tight capacity" 6 tight)

let test_probe_diag_attributes_faults () =
  match Lazy.force diamond_probe with
  | None -> Alcotest.fail "diamond has no tight edge"
  | Some probe -> (
      match probe.Faults.probe_diag with
      | None -> Alcotest.fail "probe produced no diagnostic"
      | Some d ->
          Alcotest.(check string) "deadlock code" Diag.Code.sim_deadlock d.Diag.code;
          Alcotest.(check bool) "totals note present" true
            (List.exists (String.starts_with ~prefix:"injected ") d.Diag.notes);
          Alcotest.(check bool) "fault-attribution note present" true
            (List.exists (String.starts_with ~prefix:"fault-attribution:") d.Diag.notes))

let test_underprovision_fails_every_seed () =
  (* Kahn determinacy: a capacity-caused deadlock is schedule-independent,
     so an under-provisioned campaign fails on EVERY seed, not just one. *)
  match Lazy.force diamond_probe with
  | None | Some { Faults.tight_capacity = None; _ } -> Alcotest.fail "no tight capacity"
  | Some { Faults.edge; tight_capacity = Some tight; _ } ->
      let p = Fixtures.diamond () in
      let overrides =
        Faults.underprovision ~channel_slack:quick.Engine.Config.channel_slack
          ~capacity:tight edge
      in
      let plan = { Fault_plan.default with Fault_plan.depth_overrides = overrides } in
      (match Faults.campaign ~config:quick ~plan ~schedules:5 p with
      | Error d -> Alcotest.failf "baseline must stay clean: %s" (Diag.to_string d)
      | Ok report ->
          Alcotest.(check int) "every seed deadlocks" 5
            (List.length (Faults.failures report));
          List.iter
            (fun (_, d) ->
              Alcotest.(check string) "deadlock code" Diag.Code.sim_deadlock d.Diag.code)
            (Faults.failures report))

(* {2 Shrinking} *)

let test_shrink_to_empty_events () =
  match Lazy.force diamond_probe with
  | None | Some { Faults.tight_capacity = None; _ } -> Alcotest.fail "no tight capacity"
  | Some { Faults.edge = (src, dst) as edge; tight_capacity = Some tight; _ } ->
      let p = Fixtures.diamond () in
      let inputs = Interp.random_inputs p in
      let overrides =
        Faults.underprovision ~channel_slack:quick.Engine.Config.channel_slack
          ~capacity:tight edge
      in
      let plan = { Fault_plan.default with Fault_plan.depth_overrides = overrides } in
      let deadlocks pl =
        match Engine.run ~config:(with_plan quick pl) ~inputs p with
        | Ok _ -> false
        | Error d -> String.equal d.Diag.code Diag.Code.sim_deadlock
      in
      let witness =
        match Engine.run_exn ~config:(with_plan quick plan) ~inputs p with
        | Engine.Completed _ -> Alcotest.fail "under-provisioned run completed"
        | Engine.Deadlocked { faults; _ } -> faults
      in
      Alcotest.(check bool) "witness run injected events" true
        (witness.Fault_plan.log <> []);
      (match Faults.shrink ~fails:deadlocks plan ~witness with
      | None -> Alcotest.fail "scripted replay of the witness did not fail"
      | Some minimal ->
          (* The minimal counterexample is the depth override ALONE:
             no timing event is needed, because Kahn-network deadlocks
             depend only on capacities. Pinned as a fixture string. *)
          Alcotest.(check int) "no events survive shrinking" 0
            (List.length minimal.Fault_plan.events);
          Alcotest.(check string) "pinned minimal counterexample"
            (Printf.sprintf "depth:%s->%s=%d" src dst
               (tight - quick.Engine.Config.channel_slack))
            (Fault_plan.to_string minimal))

(* The summary derives perturbed cycles from the event log; count them
   tick by tick instead, as the flags show them: a memory throttle makes
   its controller refuse every request. The script has a zero-length
   event, events queued behind a busy stream (they start late) and an
   event still running at the end; a renewal stream adds random ones.
   Every prefix of the run is compared, so each event is also cut off
   mid-burst. *)
let test_summary_counts_active_cycles () =
  let event start duration =
    { Fault_plan.Event.kind = Fault_plan.Mem_throttle; target = "m0"; start; duration;
      magnitude = 1 }
  in
  let plan =
    Fault_plan.plan
      ~events:[ event 3 0; event 3 4; event 5 2; event 20 6 ]
      ~bursts:
        [ Fault_plan.Burst.make ~target:"m1" ~gap:4 ~duration:5 ~count:12 Fault_plan.Mem_throttle ]
      ()
  in
  let controllers = [ ("m0", Sf_sim.Controller.unlimited ()); ("m1", Sf_sim.Controller.unlimited ()) ] in
  let inj = Fault_plan.create ~seed:5 ~plan ~links:[] ~controllers ~units:[] ~writers:[] in
  let perturbed = ref 0 in
  for now = 0 to 199 do
    let s = Fault_plan.summary inj ~cycles:now in
    Alcotest.(check int) (Printf.sprintf "perturbed cycles in %d" now) !perturbed
      s.Fault_plan.injected_stall_cycles;
    Alcotest.(check int) "one event per log entry" (List.length s.Fault_plan.log)
      s.Fault_plan.injected_events;
    Fault_plan.tick inj ~now ~wake:ignore;
    List.iter (fun (_, c) -> if not (Sf_sim.Controller.request c 0) then incr perturbed) controllers
  done;
  let log = (Fault_plan.summary inj ~cycles:200).Fault_plan.log in
  let starts target =
    List.filter_map
      (fun (e : Fault_plan.Event.t) ->
        if e.Fault_plan.Event.target = target then
          Some (e.Fault_plan.Event.start, e.Fault_plan.Event.duration)
        else None)
      log
  in
  Alcotest.(check (list (pair int int))) "script: queued events start late"
    [ (3, 0); (4, 4); (8, 2); (20, 6) ] (starts "m0");
  Alcotest.(check int) "every renewal burst fired" 12 (List.length (starts "m1"))

(* {2 Satellites: timeout budget} *)

let test_timeout_budget_echoed () =
  let p = Fixtures.diamond () in
  let config =
    { quick with Engine.Config.safety = Engine.Config.safety ~max_cycles:50 () }
  in
  match Engine.run ~config p with
  | Ok stats -> Alcotest.failf "expected a timeout, completed in %d cycles" stats.Engine.cycles
  | Error d ->
      Alcotest.(check string) "timeout code" Diag.Code.sim_timeout d.Diag.code;
      Alcotest.(check bool) "budget echoed in a note" true
        (List.exists (String.starts_with ~prefix:"cycle budget: 50") d.Diag.notes)

(* {2 Random programs: analysed depths survive, minus-one does not} *)

let prop_analysed_depths_survive_faults =
  QCheck.Test.make ~count:20
    ~name:"random programs: analysed depths survive seeded fault schedules"
    Program_gen.arbitrary_program (fun p ->
      match Faults.campaign ~config:quick ~schedules:3 p with
      | Error d -> QCheck.Test.fail_reportf "baseline failed: %s" (Diag.to_string d)
      | Ok report -> Faults.passed report)

let prop_tight_capacity_deadlocks =
  QCheck.Test.make ~count:12
    ~name:"random programs: under-provisioned tightest edge deadlocks with attribution"
    Program_gen.arbitrary_program (fun p ->
      match Faults.probe_tightest ~config:quick (Engine.prepare_program ~config:quick p) with
      | None -> true (* no positive-depth edge to attack *)
      | Some { Faults.tight_capacity = None; _ } -> true (* not load-bearing *)
      | Some { Faults.probe_diag = None; _ } ->
          QCheck.Test.fail_report "tight capacity found but probe run completed"
      | Some { Faults.probe_diag = Some d; _ } ->
          String.equal d.Diag.code Diag.Code.sim_deadlock
          && List.exists (String.starts_with ~prefix:"injected ") d.Diag.notes)

let suite =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: keyed split" `Quick test_rng_split;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "plan: round-trip" `Quick test_plan_roundtrip;
    Alcotest.test_case "plan: parse errors" `Quick test_plan_parse_errors;
    Alcotest.test_case "injection: deterministic from (seed, plan)" `Quick
      test_injection_deterministic;
    Alcotest.test_case "injection: seed changes the timeline" `Quick
      test_seed_changes_timeline;
    Alcotest.test_case "campaign: 25 schedules bit-identical on all fixtures" `Slow
      test_campaign_bit_identical;
    Alcotest.test_case "campaign: injected stalls cost cycles" `Quick
      test_campaign_slows_runs;
    Alcotest.test_case "probe: finds the tight capacity of the skip edge" `Quick
      test_probe_finds_tight_capacity;
    Alcotest.test_case "probe: SF0701 carries fault-attribution notes" `Quick
      test_probe_diag_attributes_faults;
    Alcotest.test_case "under-provision: every seed deadlocks (Kahn)" `Quick
      test_underprovision_fails_every_seed;
    Alcotest.test_case "shrink: converges to the event-free counterexample" `Quick
      test_shrink_to_empty_events;
    Alcotest.test_case "timeout: --max-cycles budget echoed in the diag" `Quick
      test_timeout_budget_echoed;
    QCheck_alcotest.to_alcotest prop_analysed_depths_survive_faults;
    QCheck_alcotest.to_alcotest prop_tight_capacity_deadlocks;
    Alcotest.test_case "summary: perturbed cycles match a per-tick count" `Quick
      test_summary_counts_active_cycles;
  ]
