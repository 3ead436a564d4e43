(* The seed engine's schedule, kept as a test oracle: every component
   runs every cycle in the fixed order of [Engine.Internal.components],
   with no ready set, no windows and no jumps. The engine's one
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
  I.simulate ~config ~placement ~inputs p ~drive:(fun system injector finished ->
      let comps = I.components system in
      let run now = function
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
        let progress = Array.fold_left (fun acc c -> run now c || acc) false comps in
        (match interval with
        | Some iv when now mod iv = 0 ->
            let occupancy c = (Channel.name c, Channel.occupancy c) in
            samples := (now, List.rev_map occupancy !(system.I.channels)) :: !samples
        | Some _ | None -> ());
        if progress then idle := 0 else incr idle;
        incr cycle
      done;
      (!cycle, !idle > deadlock_window, List.rev !samples))
