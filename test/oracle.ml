(* The seed engine's schedule, kept as a test oracle: every component
   runs every cycle in the fixed order of [Engine.Internal.system.comps],
   with no ready set, no windows and no jumps; the fault injector ticks
   every cycle, and a component it freezes records its frozen cycle
   ([Engine.Internal.frozen_cycle]) instead of running. The engine's one
   scheduler must reproduce everything it observes: cycles, counters,
   the Chrome trace, occupancy samples, fault summaries and deadlock
   diagnoses. *)
module Engine = Sf_sim.Engine
module I = Engine.Internal
open Sf_sim

let run_exn ?(config = Engine.Config.default) ?(placement = fun _ -> 0) ~inputs p =
  let { Engine.Config.deadlock_window; max_cycles } = config.Engine.Config.safety in
  let max_cycles = Option.value max_cycles ~default:max_int in
  let interval = config.Engine.Config.tracing.Engine.Config.trace_interval in
  I.simulate ~config ~placement ~inputs (Engine.prepare_program ~config p)
    ~drive:(fun system injector finished ->
      let frozen i now =
        match injector with Some inj -> Fault_plan.frozen_until inj i > now | None -> false
      in
      let run now i = function
        | _ when frozen i now ->
            I.frozen_cycle system i ~now;
            false
        | I.Clink l -> Link.cycle l ~now
        | I.Cwriter w -> Memory_unit.Writer.cycle w ~now
        | I.Cunit u -> Stencil_unit.cycle u ~now
        | I.Creader r -> Memory_unit.Reader.cycle r ~now
      in
      let cycle = ref 0 and idle = ref 0 and samples = ref [] in
      while (not (finished ())) && !idle <= deadlock_window && !cycle < max_cycles do
        let now = !cycle in
        Array.iter (fun c -> Controller.begin_cycle c ~now) system.I.mem_controllers;
        Option.iter (fun inj -> Fault_plan.tick inj ~now ~wake:ignore) injector;
        let progress = ref false in
        Array.iteri (fun i c -> if run now i c then progress := true) system.I.comps;
        (match interval with
        | Some iv when now mod iv = 0 ->
            let occupancy c = (Channel.name c, Channel.occupancy c) in
            samples := (now, Array.to_list (Array.map occupancy system.I.channels)) :: !samples
        | Some _ | None -> ());
        if !progress then idle := 0 else incr idle;
        incr cycle
      done;
      (!cycle, !idle > deadlock_window, List.rev !samples))
