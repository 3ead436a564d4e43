open Sf_ir
module Interp = Sf_reference.Interp
module Diag = Sf_support.Diag
module I = Engine.Internal

type decision =
  [ `Parallel of int | `Degrade of string | `Reject of Sf_support.Diag.t ]

(* ------------------------------------------------------------------ *)
(* Cross-domain synchronization.                                       *)
(*                                                                     *)
(* Each device domain owns a [sync] cell and publishes its clock, the  *)
(* first cycle it has not executed, after every [advance]. A device    *)
(* may execute cycle [t] once every upstream clock exceeds [t - L]     *)
(* (all traffic that can reach it by [t] is then in the ring) and      *)
(* every downstream clock exceeds [t - window] (bounding ring          *)
(* occupancy). An advance is also capped at [batch] cycles, so within  *)
(* one the hot loop touches no shared state at all, and a neighbour    *)
(* waits at most one batch for a clock that is due. A blocked domain   *)
(* backs off exponentially (or parks immediately when the host has     *)
(* fewer cores than domains), then waits on the condition variable.    *)
(* Publishers broadcast only when the waiter count is non-zero — the   *)
(* increment-then-recheck / set-then-read pairing makes the            *)
(* lost-wakeup race impossible under the SC total order.               *)
(* ------------------------------------------------------------------ *)

type sync = {
  clock : int Atomic.t;  (* first unexecuted cycle *)
  waiters : int Atomic.t;
  mu : Mutex.t;
  cv : Condition.t;
}

(* Published in place of the clock when a domain exits, so neighbours
   never block on it again. Far below [max_int] because horizons add a
   lookahead or window to it and must not overflow. *)
let sentinel = max_int / 4

let make_sync () =
  { clock = Atomic.make 0; waiters = Atomic.make 0; mu = Mutex.create (); cv = Condition.create () }

let publish sync c =
  Atomic.set sync.clock c;
  if Atomic.get sync.waiters > 0 then begin
    Mutex.lock sync.mu;
    Condition.broadcast sync.cv;
    Mutex.unlock sync.mu
  end

(* Wait until [clock >= target] or an abort; returns the clock read
   (callers re-check the abort flag). [spin_rounds] bounds the pre-park
   backoff: round [n] costs [2^min(n,6)] cpu_relax hints, so early
   rounds return quickly when the publisher is one batch away and late
   rounds stop hammering the cache line. Zero rounds (an oversubscribed
   host, where spinning steals the publisher's core) parks
   immediately. *)
let await sync ~abort ~spin_rounds ~target =
  let block () =
    Atomic.incr sync.waiters;
    Mutex.lock sync.mu;
    let rec wait () =
      let c = Atomic.get sync.clock in
      if c >= target || Atomic.get abort then c
      else begin
        Condition.wait sync.cv sync.mu;
        wait ()
      end
    in
    let c = wait () in
    Mutex.unlock sync.mu;
    Atomic.decr sync.waiters;
    c
  in
  let rec spin n =
    let c = Atomic.get sync.clock in
    if c >= target || Atomic.get abort then c
    else if n < spin_rounds then begin
      for _ = 1 to 1 lsl min n 6 do
        Domain.cpu_relax ()
      done;
      spin (n + 1)
    end
    else block ()
  in
  spin 0

(* ------------------------------------------------------------------ *)
(* Link directions.                                                    *)
(*                                                                     *)
(* The sequential engine cycles each [Link] whole. Here each direction *)
(* of a link is split off ({!Link.direction}): its tx half             *)
(* ({!Link.inject}) runs in the source domain and its rx half          *)
(* ({!Link.deliver}) in the destination domain, each in its device's   *)
(* link slot. Injection and delivery commute within a cycle because    *)
(* latency >= 1 keeps a word injected at [t] undeliverable before      *)
(* [t + 1].                                                            *)
(*                                                                     *)
(* Each direction gets its own bandwidth budget. That is exact when    *)
(* the link budget is infinite (requests always grant) or the link     *)
(* carries one direction only (the budget IS the link's);              *)
(* bidirectional traffic on a finite budget shares grants across       *)
(* directions in the sequential port order, which no per-direction     *)
(* split can reproduce — [decide] degrades that case.                  *)
(* ------------------------------------------------------------------ *)

type direction = { link : Link.t; src_dev : int; dst_dev : int; half : Link.t }

let run_domains ~config ~placement ~inputs (p : Program.t) =
  let telemetry = Telemetry.create ~enabled:false () in
  let system, predicted = I.build ~config ~telemetry ~placement ~inputs p in
  let ndev = Array.length system.I.mem_controllers in
  let max_cycles =
    Option.value config.Engine.Config.safety.Engine.Config.max_cycles ~default:max_int
  in
  let latency = config.Engine.Config.network.Engine.Config.net_latency_cycles in
  (* Derived constants. The run-ahead window is decoupled from the
     lookahead: domains re-synchronize on the slow downstream clock as
     rarely as the ring capacity allows. The batch is one lookahead: a
     device publishing its clock every [latency] cycles keeps a
     downstream neighbour, which may run [latency] cycles past that
     clock, supplied with work between publications, while a device
     whose advances are fast-forward windows pays its per-advance
     planning once per lookahead. On pdes-2dev (L = 128, 2 cores) a
     quarter lookahead and four lookaheads each ran about 15% slower.
     A port's ring holds the words a sequential run has in flight
     (about [latency] while streaming), plus those its source injects
     ahead of the destination's clock (at most [window + batch] cycles'
     worth). Rings hold twice that sum; a far channel that holds words
     back beyond it raises [Link.Full], and the run is replayed
     sequentially. *)
  let window = max 1024 (4 * latency) in
  let batch = max 1 latency in
  let dirs =
    List.map
      (fun key ->
        let ports =
          List.filter (fun (l, s, d, _) -> (Link.name l, s, d) = key) system.I.cross_ports
        in
        let link, src_dev, dst_dev, _ = List.hd ports in
        let srcs = List.map (fun (_, _, _, near) -> near) ports in
        let capacity = 2 * (window + latency + batch) in
        { link; src_dev; dst_dev; half = Link.direction link ~srcs ~capacity })
      (List.sort_uniq compare
         (List.map (fun (l, s, d, _) -> (Link.name l, s, d)) system.I.cross_ports))
  in
  let host_jobs = config.Engine.Config.parallelism.Engine.Config.host_jobs in
  let host_jobs = if host_jobs > 0 then host_jobs else Domain.recommended_domain_count () in
  let home name = Hashtbl.find system.I.comp_device name in
  let dev_comps =
    Array.init ndev (fun d ->
        let halves side keep =
          List.filter_map (fun x -> if keep x then Some (side x.half) else None) dirs
        in
        I.components system ~on:(fun name -> home name = d)
          ~links:
            (halves (fun h -> I.Crx h) (fun x -> x.dst_dev = d)
            @ halves (fun h -> I.Ctx h) (fun x -> x.src_dev = d)))
  in
  let used = Array.map (fun comps -> Array.length comps > 0) dev_comps in
  let spawned = Array.fold_left (fun a u -> if u then a + 1 else a) 0 used in
  (* Spinning only helps when the publisher can run concurrently; on an
     oversubscribed host every spin steals the publisher's core, so park
     at once and let the scheduler hand the core over. *)
  let spin_rounds = if spawned > host_jobs then 0 else 10 in
  let syncs = Array.init ndev (fun _ -> make_sync ()) in
  let progress = Array.init ndev (fun _ -> Atomic.make 0) in
  let abort = Atomic.make false in
  let trigger_abort () =
    Atomic.set abort true;
    Array.iter
      (fun s ->
        Mutex.lock s.mu;
        Condition.broadcast s.cv;
        Mutex.unlock s.mu)
      syncs
  in
  let progress_sum () = Array.fold_left (fun a x -> a + Atomic.get x) 0 progress in
  let run_device d =
    let comps = dev_comps.(d) in
    (* Every component done and every tx half drained (the destination
       may still need those words). An rx half has no residue by then:
       its consumers only finish once everything sent to them was
       popped. *)
    let finished () =
      Array.for_all
        (function
          | I.Cwriter w -> Memory_unit.Writer.is_done w
          | I.Cunit u -> Stencil_unit.is_done u
          | I.Creader r -> Memory_unit.Reader.is_done r
          | I.Ctx l -> Link.sources_empty l
          | I.Clink _ | I.Crx _ -> true)
        comps
    in
    let s =
      I.scheduler ~config ~finished ~controllers:[| system.I.mem_controllers.(d) |] system comps
    in
    (* Each bound as [(neighbour, slack, last clock read)]: the clock is
       re-read only when the horizon it allows is used up, so most
       advances touch no foreign atomics at all. *)
    let bounds =
      Array.of_list
        (List.filter_map
           (fun x -> if x.dst_dev = d then Some (x.src_dev, latency, ref 0) else None)
           dirs
        @ List.filter_map
            (fun x -> if x.src_dev = d then Some (x.dst_dev, window, ref 0) else None)
            dirs)
    in
    let stamp = ref (-1) in
    let publish_clock () =
      Atomic.set progress.(d) (s.I.progressed ());
      publish syncs.(d) (s.I.now ())
    in
    let rec loop () =
      let now = s.I.now () in
      if finished () then `Finished
      else if Atomic.get abort then `Aborted
      else if now >= max_cycles then begin
        trigger_abort ();
        `Timeout
      end
      else begin
        (* The sync horizon: the exclusive limit every neighbour's
           published clock allows, waiting for one when it allows
           nothing yet. *)
        let limit =
          Array.fold_left
            (fun limit (peer, slack, seen) ->
              if !seen + slack <= now && not (Atomic.get abort) then
                seen := await syncs.(peer) ~abort ~spin_rounds ~target:(now - slack + 1);
              min limit (!seen + slack))
            (min max_cycles (now + batch))
            bounds
        in
        if Atomic.get abort then `Aborted
        else begin
          s.I.advance ~limit;
          publish_clock ();
          if not (s.I.deadlocked ()) then loop ()
          else begin
            (* Locally stuck for a full window. If nothing progressed
               anywhere since the last check the whole system is wedged;
               otherwise keep waiting on the others. *)
            let sum = progress_sum () in
            if sum = !stamp then begin
              trigger_abort ();
              `Stuck
            end
            else begin
              stamp := sum;
              s.I.forgive ();
              loop ()
            end
          end
        end
      end
    in
    let status =
      try loop ()
      with Link.Full ->
        trigger_abort ();
        `Stuck
    in
    publish syncs.(d) sentinel;
    (status, s.I.now ())
  in
  let run_device d =
    match run_device d with
    | verdict -> Ok verdict
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (try trigger_abort () with _ -> ());
        publish syncs.(d) sentinel;
        Error (e, bt)
  in
  (* Devices left empty by the placement get their exit clock published
     up front instead of an idle domain. *)
  Array.iteri (fun d u -> if not u then publish syncs.(d) sentinel) used;
  let domains =
    Array.init ndev (fun d ->
        if used.(d) then Some (Domain.spawn (fun () -> run_device d)) else None)
  in
  let verdicts = Array.map (Option.map Domain.join) domains in
  Array.iter
    (function Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt | _ -> ())
    verdicts;
  let cycles = ref 0 and all_finished = ref true in
  Array.iter
    (function
      | Some (Ok (status, c)) ->
          if status <> `Finished then all_finished := false;
          cycles := max !cycles c
      | Some (Error _) | None -> ())
    verdicts;
  if not !all_finished then
    (* Deadlock, timeout or defensive abort: replay sequentially for
       the exact seed diagnosis (blocked set, circular wait, SF0701
       vs SF0703) — and, should the abort have been spurious, the
       correct completion. *)
    Engine.run_exn ~config ~placement ~inputs p
  else begin
    (* All traffic moved through per-direction budgets; credit the
       totals back so [Link.bytes_transferred] and the link counter
       rows match a sequential run. *)
    List.iter (fun x -> Link.credit_bytes x.link (Link.bytes_transferred x.half)) dirs;
    let report = I.harvest ~telemetry ~system ~cycles:!cycles ~samples:[] in
    Engine.Completed (I.completed_stats ~system ~predicted ~cycles:!cycles ~report p)
  end

(* ------------------------------------------------------------------ *)
(* Mode selection and public API.                                      *)
(* ------------------------------------------------------------------ *)

let decide ~config ~placement (p : Program.t) =
  let { Engine.Config.net_bytes_per_cycle; net_latency_cycles } =
    config.Engine.Config.network
  in
  let { Engine.Config.trace_interval; telemetry } = config.Engine.Config.tracing in
  if config.Engine.Config.parallelism.Engine.Config.mode = `Sequential then
    `Degrade "parallelism.mode is `Sequential"
  else begin
    let devices =
      List.sort_uniq compare
        (List.map (fun s -> placement s.Stencil.name) p.Program.stencils)
    in
    if List.length devices <= 1 then `Degrade "placement uses a single device"
    else if Option.is_some config.Engine.Config.faults.Engine.Config.plan then
      (* An injected run must see the sequential engine's global cycle
         order: the fault timeline is keyed to absolute cycles, and the
         domain-parallel scheduler has no global "now" to key it to. *)
      `Degrade "fault injection perturbs the schedule on the sequential engine"
    else begin
      let cross =
        List.concat_map
          (fun s ->
            let dd = placement s.Stencil.name in
            List.filter_map
              (fun field ->
                match Program.find_stencil p field with
                | Some producer ->
                    let sd = placement producer.Stencil.name in
                    if sd <> dd then Some (sd, dd) else None
                | None -> None)
              (Stencil.input_fields s))
          p.Program.stencils
      in
      if cross <> [] && net_latency_cycles < 1 then
        `Reject
          (Diag.errorf ~code:Diag.Code.sim_config
             "parallel lookahead requires net_latency_cycles >= 1, got %d"
             net_latency_cycles)
      else if telemetry then
        `Degrade "instrumented telemetry attributes stalls on the global schedule"
      else if trace_interval <> None then
        `Degrade "occupancy tracing samples the global schedule"
      else if
        net_bytes_per_cycle < infinity
        && List.exists (fun (a, b) -> List.mem (b, a) cross) cross
      then `Degrade "finite link bandwidth is shared across directions"
      else `Parallel (List.length devices)
    end
  end

let execute ~config ~placement ~inputs (p : Program.t) = function
  | `Degrade _ -> Engine.run_exn ~config ~placement ~inputs p
  | `Parallel _ ->
      Program.validate_exn p;
      run_domains ~config ~placement ~inputs p

let run_exn ?(config = Engine.Config.default) ?(placement = fun _ -> 0) ?inputs
    (p : Program.t) =
  let inputs = match inputs with Some i -> i | None -> Interp.random_inputs p in
  match decide ~config ~placement p with
  | `Reject d -> invalid_arg (Diag.to_string d)
  | (`Degrade _ | `Parallel _) as plan -> execute ~config ~placement ~inputs p plan

let run ?(config = Engine.Config.default) ?(placement = fun _ -> 0) ?inputs
    (p : Program.t) =
  let inputs = match inputs with Some i -> i | None -> Interp.random_inputs p in
  match decide ~config ~placement p with
  | `Reject d -> Error d
  | (`Degrade _ | `Parallel _) as plan ->
      Engine.to_result ~config (execute ~config ~placement ~inputs p plan)

let run_and_validate ?config ?placement ?inputs (p : Program.t) =
  let inputs = match inputs with Some i -> i | None -> Interp.random_inputs p in
  match run ?config ?placement ~inputs p with
  | Error d -> Error d
  | Ok stats -> I.compare_to_reference ~inputs p stats
