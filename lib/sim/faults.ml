(* Adversarial deadlock-freedom validation on top of Fault_plan.

   The paper's claim (Sec. IV-B) is latency-insensitivity: with the
   analysed delay-buffer depths, the dataflow graph completes with
   bit-identical outputs under ANY timing. A campaign samples that
   space with N seeded fault schedules; the under-provisioning probe
   finds the largest capacity at which the tightest edge deadlocks,
   where the claim is expected to break; the shrinker reduces a failing
   plan to a minimal counterexample. *)

module Diag = Sf_support.Diag
module Tensor = Sf_reference.Tensor
module Interp = Sf_reference.Interp

type plan = Fault_plan.t

type run_outcome = Identical of int | Failed of Diag.t

type run_record = { seed : int; outcome : run_outcome; faults : Fault_plan.summary }

type report = { baseline_cycles : int; runs : run_record list }

let failures r =
  List.filter_map
    (fun run -> match run.outcome with Failed d -> Some (run, d) | Identical _ -> None)
    r.runs

let passed r = failures r = []

(* Timing faults must not change values: compare bit patterns, not
   approximate floats — any difference at all refutes the claim. *)
let bit_identical (a : (string * Interp.result) list) (b : (string * Interp.result) list) =
  List.length a = List.length b
  && List.for_all2
       (fun (na, ra) (nb, rb) ->
         String.equal na nb
         && ra.Interp.valid = rb.Interp.valid
         && Array.for_all2
              (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
              ra.Interp.tensor.Tensor.data rb.Interp.tensor.Tensor.data)
       a b

let program (prepared : Engine.prepared) =
  prepared.Engine.analysis.Sf_analysis.Delay_buffer.program

let campaign_prepared ?(config = Engine.Config.default) ?(placement = fun _ -> 0) ?inputs
    ?(plan = Fault_plan.default) ?(schedules = 25) ?(jobs = 1) prepared =
  let inputs = match inputs with Some i -> i | None -> Interp.random_inputs (program prepared) in
  (* The unperturbed reference run: same config with faults stripped
     (any depth override in the plan still applies to the injected runs
     only — the baseline is the analysed provisioning). *)
  let baseline_config = { config with Engine.Config.faults = Engine.Config.faults () } in
  match Engine.run_prepared ~config:baseline_config ~placement ~inputs prepared with
  | Error d -> Error d
  | Ok baseline ->
      let one seed =
        let faulty =
          { config with Engine.Config.faults = Engine.Config.faults ~plan ~seed () }
        in
        match Engine.run_prepared ~config:faulty ~placement ~inputs prepared with
        | Error d -> { seed; outcome = Failed d; faults = Fault_plan.empty_summary }
        | Ok stats ->
            let outcome =
              if bit_identical stats.Engine.results baseline.Engine.results then
                Identical stats.Engine.cycles
              else
                Failed
                  (Diag.errorf ~code:Diag.Code.sim_mismatch
                     "fault schedule (seed %d) changed output values" seed)
            in
            { seed; outcome; faults = stats.Engine.faults }
      in
      (* Each schedule is an independent simulation on shared-immutable
         inputs; [Executor.map] keeps the report indexed by seed, so the
         result is byte-identical to the serial loop for any [jobs]. *)
      let runs =
        Sf_support.Executor.with_pool ~jobs (fun pool ->
            Array.to_list (Sf_support.Executor.map pool schedules (fun i -> one (i + 1))))
      in
      Ok { baseline_cycles = baseline.Engine.cycles; runs }

let campaign ?(config = Engine.Config.default) ?placement ?inputs ?plan ?schedules ?jobs p =
  campaign_prepared ~config ?placement ?inputs ?plan ?schedules ?jobs
    (Engine.prepare_program ~config p)

(* Depth override pinning an edge's REAL channel capacity: the engine
   adds [channel_slack] on top of whatever the override says, so the
   override compensates for it (and may legitimately go negative).
   Capacity 0 cannot exist. *)
let underprovision ~channel_slack ~capacity (src, dst) =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Faults.underprovision: edge %s->%s capacity %d (< 1)" src dst capacity);
  [ ((src, dst), capacity - channel_slack) ]

type depth_probe = {
  edge : string * string;
  analysed_depth : int;  (** Words; the channel also gets [channel_slack] on top. *)
  tight_capacity : int option;
      (* Largest real capacity (in [1, depth + slack - 1]) at which the
         run deadlocks; None when even capacity 1 completes. *)
  probe_diag : Diag.t option;
      (* The SF0701 of a run at [tight_capacity] under the fault plan,
         with fault-attribution notes. *)
}

(* A Kahn network's deadlocks depend only on channel capacities, never
   on timing (processes are deterministic and reads/writes block), so
   shrinking a capacity is the ONLY way to manufacture a deadlock and
   the search below is schedule-independent: the pure-capacity runs use
   [override_edge_buffers] (no injector, fast engine paths) and their
   verdict transfers to every fault schedule. Capacity shrinks
   monotonically — less space can only add deadlocks — so the largest
   deadlocking capacity is well-defined and binary-searchable. *)
let probe_tightest ?(config = Engine.Config.default) ?(placement = fun _ -> 0) ?inputs
    ?(plan = Fault_plan.default) ?(fault_seed = 1) ?(jobs = 1) prepared =
  match Sf_analysis.Delay_buffer.tightest_edge prepared.Engine.analysis with
  | None -> None
  | Some (edge, depth) ->
      let inputs =
        match inputs with Some i -> i | None -> Interp.random_inputs (program prepared)
      in
      let slack = config.Engine.Config.channel_slack in
      let base = { config with Engine.Config.faults = Engine.Config.faults () } in
      let completes capacity =
        let cfg =
          {
            base with
            Engine.Config.override_edge_buffers = underprovision ~channel_slack:slack ~capacity edge;
          }
        in
        match Engine.run_prepared ~config:cfg ~placement ~inputs prepared with
        | Ok _ -> true
        | Error _ -> false
      in
      (* Largest deadlocking capacity in [1, depth + slack - 1]: lo is
         the highest KNOWN deadlock, hi the lowest known completion.
         With [jobs > 1] each round samples k interior points of the
         bracket concurrently (k-section) instead of one midpoint;
         because [completes] is monotone in the capacity, every sample
         tightens the bracket from one side or the other and the search
         converges to the same boundary the serial bisection finds. At
         [jobs = 1] the single sample IS the midpoint, so the probe
         degenerates to exactly the old bisection. *)
      let tight =
        if completes 1 then None
        else begin
          let lo = ref 1 and hi = ref (depth + slack) in
          (* depth + slack completes by the campaign's own claim; treat
             it as the completing sentinel without re-running it. *)
          Sf_support.Executor.with_pool ~jobs (fun pool ->
              while !hi - !lo > 1 do
                let gap = !hi - !lo in
                let k = max 1 (min jobs (gap - 1)) in
                (* Strictly increasing interior points: gap >= k + 1, so
                   the real-valued increments are >= 1 and the floors
                   stay distinct, all within (lo, hi). *)
                let points = Array.init k (fun i -> !lo + (gap * (i + 1) / (k + 1))) in
                let ok = Sf_support.Executor.map pool k (fun i -> completes points.(i)) in
                Array.iteri
                  (fun i completed ->
                    if completed then begin
                      if points.(i) < !hi then hi := points.(i)
                    end
                    else if points.(i) > !lo then lo := points.(i))
                  ok
              done);
          Some !lo
        end
      in
      let probe_diag =
        match tight with
        | None -> None
        | Some capacity ->
            let probe_plan =
              {
                plan with
                Fault_plan.depth_overrides = underprovision ~channel_slack:slack ~capacity edge;
              }
            in
            let cfg =
              {
                base with
                Engine.Config.faults = Engine.Config.faults ~plan:probe_plan ~seed:fault_seed ();
              }
            in
            (match Engine.run_prepared ~config:cfg ~placement ~inputs prepared with
            | Ok _ -> None (* cannot happen: capacity deadlocks schedule-independently *)
            | Error d -> Some d)
      in
      Some { edge; analysed_depth = depth; tight_capacity = tight; probe_diag }

(* Shrink a failing plan to a minimal counterexample. First replay the
   plan's own injected-event log as a scripted plan (witness): renewal
   bursts become concrete events, making every candidate deterministic
   without a seed. Then ddmin over the event list, then halve the
   surviving durations while the failure persists.

   For a correctly-provisioned network the interesting outcome is the
   opposite: [fails] keeps failing on the EMPTY event list, because a
   Kahn network's deadlocks depend only on capacities, never timing —
   the shrinker converging to zero events IS the proof that the depth
   override alone, not any injected timing, causes the deadlock. *)
let shrink ~fails (plan : Fault_plan.t) ~(witness : Fault_plan.summary) =
  let base events =
    { Fault_plan.bursts = []; events; depth_overrides = plan.Fault_plan.depth_overrides }
  in
  if not (fails (base witness.Fault_plan.log)) then None
  else begin
    let events = ref witness.Fault_plan.log in
    (* ddmin: drop chunks of shrinking size while the failure persists.
       The empty list is a legal end state — a depth-override plan that
       deadlocks with no injected timing at all proves the capacities,
       not the timing, are at fault. *)
    let chunk = ref (max 1 (List.length !events / 2)) in
    while !chunk >= 1 do
      let i = ref 0 in
      while !i < List.length !events do
        let keep = List.filteri (fun j _ -> j < !i || j >= !i + !chunk) !events in
        if List.length keep < List.length !events && fails (base keep) then
          (* Keep the index: the list shifted left under it. *)
          events := keep
        else i := !i + !chunk
      done;
      chunk := if !chunk = 1 then 0 else !chunk / 2
    done;
    (* Halve surviving durations while the failure persists. *)
    let arr = ref (Array.of_list !events) in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iteri
        (fun i (e : Fault_plan.Event.t) ->
          if e.Fault_plan.Event.duration > 1 then begin
            let shorter =
              { e with Fault_plan.Event.duration = e.Fault_plan.Event.duration / 2 }
            in
            let candidate = Array.copy !arr in
            candidate.(i) <- shorter;
            if fails (base (Array.to_list candidate)) then begin
              arr := candidate;
              changed := true
            end
          end)
        !arr
    done;
    Some (base (Array.to_list !arr))
  end
