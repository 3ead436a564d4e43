(* The telemetry layer: the typed counter registry must reconcile with
   the channel totals the engine has always maintained, an instrumented
   run must reproduce the uninstrumented one exactly (cycles, stalls,
   outputs) and record what the every-cycle oracle records (counters,
   trace, fault summary, diagnosis), stall attribution must blame the
   channel that actually causes the Fig. 4 deadlock, and the Chrome
   trace export must be well-formed trace_event JSON. *)
module Engine = Sf_sim.Engine
module Telemetry = Sf_sim.Telemetry
module Interp = Sf_reference.Interp
module Diag = Sf_support.Diag
module Json = Sf_support.Json
module Fault_plan = Sf_sim.Fault_plan

let cheap = Engine.Config.make ~latency:Sf_analysis.Latency.cheap ()

let instrumented ?(base = cheap) () =
  { base with Engine.Config.tracing = Engine.Config.tracing ~telemetry:true () }

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let completed = function
  | Engine.Completed stats -> stats
  | Engine.Deadlocked { cycle; _ } -> Alcotest.failf "unexpected deadlock at cycle %d" cycle

(* ------------------------------------------------------------------ *)
(* Registry accounting                                                 *)
(* ------------------------------------------------------------------ *)

(* Every word that enters a channel leaves it: summing pushes and pops
   over the registry's component rows must each equal the sum of the
   channel totals, and the byte counters must match the engine's own
   off-chip accounting. *)
let test_registry_reconciles () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 () in
  let stats = completed (Engine.run_exn ~config:(instrumented ()) p) in
  let t = stats.Engine.telemetry in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let channel_pushed = sum (fun (c : Telemetry.channel_info) -> c.Telemetry.total_pushed) t.Telemetry.channels in
  let channel_popped = sum (fun (c : Telemetry.channel_info) -> c.Telemetry.total_popped) t.Telemetry.channels in
  Alcotest.(check int) "channels drained" channel_pushed channel_popped;
  let comp_pushes = sum (fun (c : Telemetry.counters) -> c.Telemetry.pushes) t.Telemetry.components in
  let comp_pops = sum (fun (c : Telemetry.counters) -> c.Telemetry.pops) t.Telemetry.components in
  (* Links pop from their source channel and push into their remote
     destination, so without links components' pushes = channel pushes. *)
  Alcotest.(check int) "registry pushes match channel totals" channel_pushed comp_pushes;
  Alcotest.(check int) "registry pops match channel totals" channel_popped comp_pops;
  let reader_bytes =
    sum
      (fun (c : Telemetry.counters) ->
        if c.Telemetry.kind = Telemetry.Reader then c.Telemetry.bytes else 0)
      t.Telemetry.components
  in
  let writer_bytes =
    sum
      (fun (c : Telemetry.counters) ->
        if c.Telemetry.kind = Telemetry.Writer then c.Telemetry.bytes else 0)
      t.Telemetry.components
  in
  Alcotest.(check int) "reader bytes = bytes_read" stats.Engine.bytes_read reader_bytes;
  Alcotest.(check int) "writer bytes = bytes_written" stats.Engine.bytes_written writer_bytes

(* Per-component invariants: cause breakdown and blamed channels sum to
   the stalled total, and busy + stalled never exceeds the run length. *)
let test_registry_per_component () =
  let p = Fixtures.kitchen_sink () in
  let stats = completed (Engine.run_exn ~config:(instrumented ()) p) in
  let t = stats.Engine.telemetry in
  Alcotest.(check bool) "telemetry enabled" true t.Telemetry.enabled;
  List.iter
    (fun (c : Telemetry.counters) ->
      let by_cause = List.fold_left (fun acc (_, n) -> acc + n) 0 c.Telemetry.stalls_by_cause in
      Alcotest.(check int)
        (c.Telemetry.name ^ ": causes sum to stalled total")
        c.Telemetry.stalled_cycles by_cause;
      let blamed = List.fold_left (fun acc (_, n) -> acc + n) 0 c.Telemetry.blocked_on in
      Alcotest.(check bool)
        (c.Telemetry.name ^ ": blamed <= stalled")
        true
        (blamed <= c.Telemetry.stalled_cycles);
      Alcotest.(check bool)
        (c.Telemetry.name ^ ": busy + stalled <= cycles")
        true
        (c.Telemetry.busy_cycles + c.Telemetry.stalled_cycles <= t.Telemetry.cycles))
    t.Telemetry.components

(* ------------------------------------------------------------------ *)
(* Instrumented / uninstrumented equivalence                           *)
(* ------------------------------------------------------------------ *)

(* Turning the probes on must not change what the simulator computes:
   same cycle count, same per-unit stall totals, same high-water marks,
   same output tensors. *)
let test_telemetry_off_on_equivalence () =
  List.iter
    (fun (name, p) ->
      let inputs = Interp.random_inputs p in
      let off = completed (Engine.run_exn ~config:cheap ~inputs p) in
      let on = completed (Engine.run_exn ~config:(instrumented ()) ~inputs p) in
      Alcotest.(check int) (name ^ ": cycles") off.Engine.cycles on.Engine.cycles;
      Alcotest.(check (list (pair string int)))
        (name ^ ": unit stalls")
        (Telemetry.unit_stalls off.Engine.telemetry)
        (Telemetry.unit_stalls on.Engine.telemetry);
      List.iter2
        (fun (n, hw, cap) (n', hw', cap') ->
          Alcotest.(check (triple string int int)) (name ^ ": high water " ^ n) (n, hw, cap)
            (n', hw', cap'))
        (Telemetry.channel_high_water off.Engine.telemetry)
        (Telemetry.channel_high_water on.Engine.telemetry);
      List.iter2
        (fun (n, (r : Interp.result)) (n', (r' : Interp.result)) ->
          Alcotest.(check string) (name ^ ": output name") n n';
          Alcotest.(check (array (float 0.0)))
            (name ^ ": output " ^ n)
            r.Interp.tensor.Sf_reference.Tensor.data r'.Interp.tensor.Sf_reference.Tensor.data)
        off.Engine.results on.Engine.results)
    [
      ("laplace2d", Fixtures.laplace2d ());
      ("diamond", Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 ());
      ("kitchen-sink", Fixtures.kitchen_sink ());
    ]

let deadlock_config =
  {
    (instrumented ()) with
    Engine.Config.override_edge_buffers = [ (("a", "c"), 0) ];
    Engine.Config.channel_slack = 2;
    Engine.Config.safety = Engine.Config.safety ~deadlock_window:256 ();
  }

(* Everything a run shows, one line per view: the parity signature
   (cycles, unit stalls, high-water marks, output bits, the occupancy
   samples), the counters JSON (per-cause and per-channel stalls, busy
   cycles), the Chrome trace (stall spans, active phases, sampled
   occupancies), the fault summary with its event log, and for a run
   that did not finish its full diagnosis. *)
let observe ~config outcome =
  let telemetry, faults =
    match outcome with
    | Engine.Completed s -> (s.Engine.telemetry, s.Engine.faults)
    | Engine.Deadlocked { telemetry; faults; _ } -> (telemetry, faults)
  in
  let event (e : Fault_plan.Event.t) =
    Printf.sprintf "%s@%s:%d+%d*%d" (Fault_plan.kind_name e.Fault_plan.Event.kind)
      e.Fault_plan.Event.target e.Fault_plan.Event.start e.Fault_plan.Event.duration
      e.Fault_plan.Event.magnitude
  in
  [
    ("signature", Test_sim_parity.signature outcome);
    ("counters", Json.to_string (Telemetry.counters_json telemetry));
    ("trace", Json.to_string (Telemetry.trace_events_json telemetry));
    ( "faults",
      Printf.sprintf "%d/%d [%s]" faults.Fault_plan.injected_events
        faults.Fault_plan.injected_stall_cycles
        (String.concat "; " (List.map event faults.Fault_plan.log)) );
    ( "diagnosis",
      match Engine.to_result ~config outcome with Ok _ -> "ok" | Error d -> Diag.to_string d );
  ]

let matches_oracle ~config ?placement ~inputs p outcome =
  let got = observe ~config outcome in
  let want = observe ~config (Oracle.run_exn ~config ?placement ~inputs p) in
  match List.find_opt (fun ((_, g), (_, w)) -> g <> w) (List.combine got want) with
  | None -> Ok ()
  | Some ((view, g), (_, w)) ->
      Error (Printf.sprintf "%s differs:\n  engine: %s\n  oracle: %s" view g w)

let same_as_oracle ~config ?placement ~inputs p =
  matches_oracle ~config ?placement ~inputs p (Engine.run_exn ~config ?placement ~inputs p)

(* Rename a program's stencils, one drawn choice [c] per stencil in
   order (missing choices keep the name). [c mod 12] below 6 keeps it;
   otherwise it picks a name that collides with what the engine names
   its channels and components: [mem] (a writer's channel is
   [<o>->mem]), [<s>.tx] or [<s>.rx] of the stencil [s] that [c / 12]
   draws (the ends of a cross-device edge into [s]), a name containing
   [->], the link [link0-1] or the writer [write.<o>@0] of a drawn
   output [o]. A name already taken keeps the original. Accesses are
   renamed as [Timeloop.unroll] does. *)
let rename_stencils (p : Sf_ir.Program.t) choices =
  let open Sf_ir in
  let names = List.map (fun s -> s.Stencil.name) p.Program.stencils in
  let nth l c = List.nth l (c / 12 mod List.length l) in
  let taken = Hashtbl.create 8 in
  let renamed =
    List.mapi
      (fun k name ->
        let c = match List.nth_opt choices k with Some c -> c | None -> 0 in
        let candidate =
          match c mod 12 with
          | 6 -> "mem"
          | 7 -> nth names c ^ ".tx"
          | 8 -> nth names c ^ ".rx"
          | 9 -> name ^ "->" ^ nth names c
          | 10 -> "link0-1"
          | 11 -> Printf.sprintf "write.%s@0" (nth p.Program.outputs c)
          | _ -> name
        in
        let fresh = if Hashtbl.mem taken candidate then name else candidate in
        Hashtbl.replace taken fresh ();
        (name, fresh))
      names
  in
  let rename f = Option.value (List.assoc_opt f renamed) ~default:f in
  let stencil (st : Stencil.t) =
    let rewrite =
      Expr.map_accesses (fun ~field ~offsets -> Expr.Access { field = rename field; offsets })
    in
    Stencil.make
      ~boundary:(List.map (fun (f, b) -> (rename f, b)) st.Stencil.boundary)
      ~shrink:st.Stencil.shrink ~name:(rename st.Stencil.name)
      {
        Expr.lets = List.map (fun (n, e) -> (n, rewrite e)) st.Stencil.body.Expr.lets;
        result = rewrite st.Stencil.body.Expr.result;
      }
  in
  {
    p with
    Program.stencils = List.map stencil p.Program.stencils;
    outputs = List.map rename p.Program.outputs;
  }

(* The one scheduler against the oracle over random programs, always
   instrumented. Each draw also picks an occupancy sampling interval,
   a fault seed under [Fault_plan.default] and a cycle budget (some runs
   time out), each or none; a placement over 2-4 devices in half the
   draws, over unlimited memory bandwidth in half of those (a finite one
   keeps every window out) and 4 or 16 bytes per cycle in the rest; and
   the link latency and byte budget a multi-device placement runs over.
   A zero latency delivers a word the cycle after its injection, like a
   latency of one. The generated words are 4 or 8 bytes, so a 4-byte
   budget keeps all but a single one-lane port on the per-cycle path,
   while 16 and 33 let links into windows. A run must complete unless
   its budget runs out, and the same run with telemetry off must show
   the same signature. The stencils are renamed by [rename_stencils],
   so names repeat across channels and components. *)
let prop_schedules_agree =
  let options =
    QCheck.(
      pair
        (quad
           (option ~ratio:0.5 (int_range 1 40))
           (option ~ratio:0.5 (int_range 1 10_000))
           (option ~ratio:0.2 (int_range 1 2_000))
           (option ~ratio:0.5
              (pair (int_range 2 4)
                 (frequencyl ~print:string_of_float [ (2, infinity); (1, 4.); (1, 16.) ]))))
        (triple
           (oneofl ~print:string_of_int [ 0; 1; 8; 128 ])
           (oneofl ~print:string_of_float [ infinity; 4.; 16.; 33. ])
           (list_of_size (Gen.return 5) (int_bound 59))))
  in
  QCheck.Test.make ~count:300 ~name:"random programs: fast-forward matches the oracle"
    (QCheck.pair Program_gen.arbitrary_adversarial_program options)
    (fun ( p,
           ( (trace_interval, fault_seed, max_cycles, multi_device),
             (net_latency_cycles, net_bytes_per_cycle, renaming) ) ) ->
      let p = rename_stencils p renaming in
      let config =
        {
          cheap with
          Engine.Config.tracing = Engine.Config.tracing ?trace_interval ~telemetry:true ();
          faults =
            (match fault_seed with
            | Some seed -> Engine.Config.faults ~plan:Fault_plan.default ~seed ()
            | None -> Engine.Config.faults ());
          safety = Engine.Config.safety ?max_cycles ();
          bandwidth =
            Engine.Config.bandwidth ?mem_bytes_per_cycle:(Option.map snd multi_device) ();
          network = Engine.Config.network ~net_bytes_per_cycle ~net_latency_cycles ();
        }
      in
      let placement =
        Option.map (fun (devices, _) name -> Hashtbl.hash name mod devices) multi_device
      in
      let inputs = Interp.random_inputs p in
      let run config = Engine.run_exn ~config ?placement ~inputs p in
      let outcome = run config in
      (match outcome with
      | Engine.Deadlocked { cycle; timed_out; _ } when max_cycles = None || not timed_out ->
          QCheck.Test.fail_reportf "deadlock at cycle %d" cycle
      | Engine.Deadlocked _ | Engine.Completed _ -> ());
      let plain =
        run { config with Engine.Config.tracing = Engine.Config.tracing ?trace_interval () }
      in
      if Test_sim_parity.signature plain <> Test_sim_parity.signature outcome then
        QCheck.Test.fail_reportf "telemetry perturbs the run:\n  off: %s\n  on:  %s"
          (Test_sim_parity.signature plain) (Test_sim_parity.signature outcome);
      match matches_oracle ~config ?placement ~inputs p outcome with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_report m)

(* A chain of [length] applications of [kind] in which every third
   stage from the second also reads the stage two before it: a skip
   edge, so that stage's unit has two inputs, whose delay buffers start
   and stop their consumption at different steps. *)
let chain_with_skips ~shape ~vector_width kind ~length =
  let open Sf_ir in
  let b = Builder.create ~vector_width ~name:"skip_chain" ~shape () in
  let zero = Boundary.Constant 0. and body field = Sf_kernels.Iterative.body kind ~field in
  Builder.input b "f0";
  for i = 1 to length do
    let prev = Printf.sprintf "f%d" (i - 1) and name = Printf.sprintf "f%d" i in
    if i mod 3 = 2 then begin
      let skip = Printf.sprintf "f%d" (i - 2) in
      Builder.stencil b ~boundary:[ (prev, zero); (skip, zero) ] name
        (Expr.Binary (Expr.Add, body prev, body skip))
    end
    else Builder.stencil b ~boundary:[ (prev, zero) ] name (body prev)
  done;
  Builder.output b (Printf.sprintf "f%d" length);
  Builder.finish b

(* Long chains against the oracle. A window plans each unit's phase
   changes as segments and lets a stage asleep on its empty input join
   the cycle after its producer's first push, so a chain runs in a few
   windows; the random programs above are 1-5 stencils on tiny rows and
   rarely get that far. Each draw is a Jacobi or diffusion chain of
   2-48 stages at W = 1, 2 or 4, half of them with skip edges (so units
   with two inputs plan each input's start and end of consumption),
   placed contiguously over 1-3 devices, with a link latency of 0, 1, 8
   or 128 and a link budget of one W = 4 word per cycle or none; and,
   each or none, an occupancy sampling interval and a fault seed under
   [Fault_plan.default]. Windows change no result, so the oracle cannot
   see a plan that ends a window early; but a chain on one device with
   neither faults nor sampling runs in one window, which the property
   checks too: a plan that ends an input's consumption a step late, say,
   stops its window at that input's last word. *)
let prop_long_chains_agree =
  let open Sf_kernels.Iterative in
  let draws =
    QCheck.(
      quad
        (triple (oneofl ~print:kind_name [ Jacobi2d; Diffusion2d; Jacobi3d ]) (int_range 2 48) bool)
        (pair (oneofl ~print:string_of_int [ 1; 2; 4 ]) (int_range 1 3))
        (pair (oneofl ~print:string_of_int [ 0; 1; 8; 128 ])
           (oneofl ~print:string_of_float [ infinity; 16. ]))
        (pair (option ~ratio:0.3 (int_range 1 300)) (option ~ratio:0.3 (int_range 1 10_000))))
  in
  QCheck.Test.make ~count:40 ~name:"long chains: fast-forward matches the oracle" draws
    (fun ( (kind, length, skips),
           (vector_width, devices),
           (net_latency_cycles, net_bytes_per_cycle),
           (trace_interval, fault_seed) ) ->
      let shape = match kind with Jacobi3d -> [ 3; 4; 8 ] | _ -> [ 6; 16 ] in
      let p =
        if skips then chain_with_skips ~shape ~vector_width kind ~length
        else chain ~shape ~vector_width kind ~length
      in
      let placement =
        match Sf_mapping.Partition.contiguous ~devices:(min devices length) p with
        | Ok pt -> Sf_mapping.Partition.placement_fn pt
        | Error d -> QCheck.Test.fail_report d.Diag.message
      in
      let config =
        {
          cheap with
          Engine.Config.tracing = Engine.Config.tracing ?trace_interval ~telemetry:true ();
          faults =
            (match fault_seed with
            | Some seed -> Engine.Config.faults ~plan:Fault_plan.default ~seed ()
            | None -> Engine.Config.faults ());
          network = Engine.Config.network ~net_bytes_per_cycle ~net_latency_cycles ();
        }
      in
      let module I = Engine.Internal in
      let inputs = Interp.random_inputs p and windows = ref 0 in
      let outcome =
        I.simulate ~config ~placement ~inputs (Engine.prepare_program ~config p)
          ~drive:(fun system injector finished ->
            let s = I.scheduler ~config ?injector ~finished system in
            s.I.advance ~limit:max_int;
            windows := s.I.windows ();
            (s.I.now (), s.I.deadlocked (), s.I.samples ()))
      in
      (match matches_oracle ~config ~placement ~inputs p outcome with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report m);
      devices > 1 || Option.is_some fault_seed || Option.is_some trace_interval || !windows = 1
      || QCheck.Test.fail_reportf "one device, no faults, no sampling: %d windows, not 1" !windows)

(* Deadlocks and timeouts against the oracle: the Fig. 4 diamond with
   its skip edge shrunk to nothing, plain, sampled and under faults,
   and the same program cut short by a cycle budget. *)
let test_diagnoses_match_oracle () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 () in
  let inputs = Interp.random_inputs p in
  let faults seed = Engine.Config.faults ~plan:Fault_plan.default ~seed () in
  List.iter
    (fun (name, config) ->
      match same_as_oracle ~config ~inputs p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" name m)
    ([
       ("deadlock", deadlock_config);
       ( "deadlock, sampled",
         {
           deadlock_config with
           Engine.Config.tracing = Engine.Config.tracing ~trace_interval:16 ~telemetry:true ();
         } );
       ( "timeout under faults",
         {
           (instrumented ()) with
           Engine.Config.safety = Engine.Config.safety ~max_cycles:700 ();
           faults = faults 7;
         } );
     ]
    @ List.init 8 (fun seed ->
          ( Printf.sprintf "deadlock under faults, seed %d" seed,
            { deadlock_config with Engine.Config.faults = faults seed } )))

(* Every shipped example against the oracle, instrumented, sampled and
   under the default fault plan. *)
let test_examples_match_oracle () =
  List.iter
    (fun file ->
      let p = Fixtures.ok (Sf_frontend.Program_json.of_file file) in
      let config =
        {
          (instrumented ()) with
          Engine.Config.tracing = Engine.Config.tracing ~trace_interval:97 ~telemetry:true ();
          faults = Engine.Config.faults ~plan:Fault_plan.default ~seed:3 ();
        }
      in
      match same_as_oracle ~config ~inputs:(Interp.random_inputs p) p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" (Filename.basename file) m)
    (Test_examples.example_files ())

(* The skewed diamond cut after [a]: one link feeds [b] and [c] on
   device 1, and the a->c far channel fills its delay buffer before [c]
   pops it. From then on the link delivers into it and [c] pops it in
   the same cycle, inside fast-forward windows, so its high-water mark
   must settle one word above the occupancy it keeps. Instrumented, at
   the latencies the property draws and at a budget of one word per
   cycle. *)
let test_link_windows_match_oracle () =
  let p = Fixtures.skewed_diamond () in
  let inputs = Interp.random_inputs p in
  let placement = function "a" -> 0 | _ -> 1 in
  List.iter
    (fun (net_latency_cycles, net_bytes_per_cycle) ->
      let config =
        {
          (instrumented ()) with
          Engine.Config.network = Engine.Config.network ~net_bytes_per_cycle ~net_latency_cycles ();
        }
      in
      match same_as_oracle ~config ~placement ~inputs p with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "latency %d, %g B/cycle: %s" net_latency_cycles net_bytes_per_cycle m)
    [ (1, infinity); (8, infinity); (128, infinity); (8, 4.) ]

(* One link carrying ports both ways: a 6-stage Jacobi2D chain placed
   f1, f2 on device 0, f3, f4 on device 1 and f5, f6 back on device 0,
   so link0-1 carries f2->f3 out and f4->f5 back. No one place in a
   chunk fits both ports; each runs after the producer of its source.
   Instrumented, against the oracle and validated, at latencies 1, 8
   and 128 and at 16 B/cycle, with its cycles, windows and unit-chunk
   visits pinned. While a port that delivered and injected capped the
   whole window's chunk at its words in flight, the same cycles and
   windows took 24570, 3089, 210 and 3089 visits. *)
let test_two_way_link_matches_oracle () =
  let p = Sf_kernels.Iterative.(chain ~shape:[ 16; 256 ] Jacobi2d ~length:6) in
  let inputs = Interp.random_inputs p in
  let placement = function "f3" | "f4" -> 1 | _ -> 0 in
  List.iter
    (fun (net_latency_cycles, net_bytes_per_cycle, counts) ->
      let config =
        {
          (instrumented ~base:Engine.Config.default ()) with
          Engine.Config.network = Engine.Config.network ~net_bytes_per_cycle ~net_latency_cycles ();
        }
      in
      let name = Printf.sprintf "latency %d, %g B/cycle" net_latency_cycles net_bytes_per_cycle in
      (match same_as_oracle ~config ~placement ~inputs p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" name m);
      (match Engine.run_and_validate ~config ~placement ~inputs p with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "%s: %s" name (Diag.to_string d));
      let unit_chunks = ref 0 in
      let cycles, _, windows = Test_sim.window_counts ~unit_chunks ~config ~placement p in
      Alcotest.(check (triple int int int))
        (name ^ ": cycles, windows, unit-chunks")
        counts (cycles, windows, !unit_chunks))
    [
      (1, infinity, (7_369, 5, 66));
      (8, infinity, (7_383, 9, 78));
      (128, infinity, (7_623, 9, 78));
      (8, 16., (7_383, 9, 78));
    ]

(* Names are display text and may repeat. Stencil [b.tx] reads [a] on
   [a]'s device while [b] reads it across a link, so the same-device
   channel and the near end of the link are both [a->b.tx]; output [o]
   read by a stencil named [mem] gives the edge and the writer's input
   both the name [o->mem]. Each run must complete, validate and equal
   the oracle. *)
let test_repeated_names_match_oracle () =
  let open Sf_ir in
  let module E = Builder.E in
  let program name stencils outputs =
    let b = Builder.create ~name ~shape:[ 8; 16 ] () in
    Builder.input b "x";
    List.iter (fun (s, e) -> Builder.stencil b s e) stencils;
    List.iter (Builder.output b) outputs;
    Builder.finish b
  in
  let tx =
    program "tx_name"
      E.
        [
          ("a", acc "x" [ 0; 0 ] *% c 2.);
          ("b.tx", acc "a" [ 0; 0 ] +% c 1.);
          ("b", acc "a" [ 0; 0 ] *% c 3.);
        ]
      [ "b.tx"; "b" ]
  and mem =
    program "mem_name"
      E.[ ("o", acc "x" [ 0; 0 ] *% c 2.); ("mem", acc "o" [ 0; 0 ] +% c 1.) ]
      [ "o"; "mem" ]
  in
  let contiguous p =
    match Sf_mapping.Partition.contiguous ~devices:2 p with
    | Ok pt -> Sf_mapping.Partition.placement_fn pt
    | Error d -> Alcotest.fail d.Diag.message
  in
  List.iter
    (fun (name, p, placement) ->
      let config = instrumented () and inputs = Interp.random_inputs p in
      (match Engine.run_and_validate ~config ~placement ~inputs p with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "%s: %s" name (Diag.to_string d));
      match same_as_oracle ~config ~placement ~inputs p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" name m)
    [ ("b.tx on 2 devices", tx, contiguous tx); ("mem", mem, fun _ -> 0) ]

(* With telemetry off the probes are [None]: no spans accumulate, but
   the always-on aggregates are still harvested. *)
let test_disabled_report_shape () =
  let stats = completed (Engine.run_exn ~config:cheap (Fixtures.laplace2d ())) in
  let t = stats.Engine.telemetry in
  Alcotest.(check bool) "disabled" false t.Telemetry.enabled;
  Alcotest.(check (list (pair string int))) "no spans" [] (List.map (fun (s : Telemetry.span) -> (s.Telemetry.track, s.Telemetry.start_cycle)) t.Telemetry.spans);
  Alcotest.(check bool) "components harvested" true (t.Telemetry.components <> []);
  Alcotest.(check bool) "channels harvested" true (t.Telemetry.channels <> [])

(* ------------------------------------------------------------------ *)
(* Stall attribution on the Fig. 4 deadlock                            *)
(* ------------------------------------------------------------------ *)

(* Shrinking the skip edge of the diamond to nothing deadlocks the run;
   the attribution table must rank a blocked component blaming the
   undersized "a->c" channel. *)
let test_attribution_names_blocking_channel () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 () in
  match Engine.run_exn ~config:deadlock_config p with
  | Engine.Completed _ -> Alcotest.fail "expected deadlock"
  | Engine.Deadlocked { telemetry; timed_out; _ } ->
      Alcotest.(check bool) "true deadlock, not timeout" false timed_out;
      let rows = Telemetry.attribution telemetry in
      Alcotest.(check bool) "attribution nonempty" true (rows <> []);
      let blames_skip_edge =
        List.exists
          (fun (c : Telemetry.counters) ->
            match Telemetry.top_blocker c with
            | Some ("a->c", _) -> true
            | _ -> false)
          rows
      in
      Alcotest.(check bool) "some component blames a->c" true blames_skip_edge;
      let rendered = Format.asprintf "%a" Telemetry.pp_attribution telemetry in
      Alcotest.(check bool) "table names a->c" true
        (contains_substring rendered "a->c")

(* The structured failure path: a deadlock is SF0701 with the
   attribution attached as notes; exhausting the cycle budget is SF0703. *)
let test_failure_diags () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 () in
  (match Engine.run ~config:deadlock_config p with
  | Ok _ -> Alcotest.fail "expected deadlock"
  | Error d ->
      Alcotest.(check string) "deadlock code" Diag.Code.sim_deadlock d.Diag.code;
      Alcotest.(check bool) "has notes" true (d.Diag.notes <> []));
  let timeout_config =
    { cheap with Engine.Config.safety = Engine.Config.safety ~max_cycles:10 () }
  in
  match Engine.run ~config:timeout_config p with
  | Ok _ -> Alcotest.fail "expected timeout"
  | Error d -> Alcotest.(check string) "timeout code" Diag.Code.sim_timeout d.Diag.code

(* ------------------------------------------------------------------ *)
(* JSON exports                                                        *)
(* ------------------------------------------------------------------ *)

let reparse json =
  match Json.parse (Json.to_string json) with
  | Ok v -> v
  | Error e -> Alcotest.failf "export is not valid JSON: %s" (Json.error_to_string e)

let test_counters_json () =
  let p = Fixtures.laplace2d () in
  let stats = completed (Engine.run_exn ~config:(instrumented ()) p) in
  let t = stats.Engine.telemetry in
  let v = reparse (Telemetry.counters_json t) in
  let components =
    match Json.member_exn "components" v with
    | Json.List l -> l
    | _ -> Alcotest.fail "components is not a list"
  in
  Alcotest.(check int) "one row per component" (List.length t.Telemetry.components)
    (List.length components);
  Alcotest.(check int) "cycles field" stats.Engine.cycles
    (Json.get_int (Json.member_exn "cycles" v))

(* The Chrome trace must be an object with a traceEvents array in which
   every event carries the mandatory ph/pid/tid/name fields, complete
   events ("X") have ts + dur, and stall spans carry the blamed channel
   in args. *)
let test_trace_events_json () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:5 () in
  let config =
    { (instrumented ()) with
      Engine.Config.tracing = Engine.Config.tracing ~trace_interval:8 ~telemetry:true () }
  in
  let stats = completed (Engine.run_exn ~config p) in
  let v = reparse (Telemetry.trace_events_json stats.Engine.telemetry) in
  let events =
    match Json.member_exn "traceEvents" v with
    | Json.List l -> l
    | _ -> Alcotest.fail "traceEvents is not a list"
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let phases = List.filter_map (fun e -> Json.member "ph" e) events in
  Alcotest.(check int) "every event has ph" (List.length events) (List.length phases);
  let has ph = List.exists (fun p -> p = Json.String ph) phases in
  Alcotest.(check bool) "metadata events" true (has "M");
  Alcotest.(check bool) "complete events" true (has "X");
  Alcotest.(check bool) "counter events" true (has "C");
  List.iter
    (fun e ->
      match Json.member "ph" e with
      | Some (Json.String "X") ->
          Alcotest.(check bool) "X has ts" true (Json.member "ts" e <> None);
          Alcotest.(check bool) "X has dur" true (Json.member "dur" e <> None)
      | _ -> ())
    events

(* ------------------------------------------------------------------ *)
(* Config ergonomics                                                   *)
(* ------------------------------------------------------------------ *)

let test_config_defaults () =
  let c = Engine.Config.make () in
  Alcotest.(check bool) "default = make ()" true (c = Engine.Config.default);
  Alcotest.(check bool)
    "faults disabled by default" true
    (Option.is_none c.Engine.Config.faults.Engine.Config.plan);
  Alcotest.(check int) "net latency" 64 c.Engine.Config.network.Engine.Config.net_latency_cycles;
  Alcotest.(check int) "deadlock window" 4096 c.Engine.Config.safety.Engine.Config.deadlock_window;
  Alcotest.(check bool) "telemetry off by default" false c.Engine.Config.tracing.Engine.Config.telemetry

let suite =
  [
    Alcotest.test_case "registry reconciles with channel totals" `Quick test_registry_reconciles;
    Alcotest.test_case "per-component counter invariants" `Quick test_registry_per_component;
    Alcotest.test_case "instrumented run matches uninstrumented" `Quick
      test_telemetry_off_on_equivalence;
    QCheck_alcotest.to_alcotest prop_schedules_agree;
    QCheck_alcotest.to_alcotest prop_long_chains_agree;
    Alcotest.test_case "deadlock and timeout diagnoses match the oracle" `Quick
      test_diagnoses_match_oracle;
    Alcotest.test_case "shipped examples match the oracle" `Slow test_examples_match_oracle;
    Alcotest.test_case "link windows match the oracle on a cut diamond" `Quick
      test_link_windows_match_oracle;
    Alcotest.test_case "a link carrying ports both ways matches the oracle" `Quick
      test_two_way_link_matches_oracle;
    Alcotest.test_case "repeated channel names match the oracle" `Quick
      test_repeated_names_match_oracle;
    Alcotest.test_case "disabled report keeps always-on aggregates" `Quick
      test_disabled_report_shape;
    Alcotest.test_case "attribution blames the undersized channel" `Quick
      test_attribution_names_blocking_channel;
    Alcotest.test_case "deadlock and timeout diagnostics" `Quick test_failure_diags;
    Alcotest.test_case "counters JSON round-trips" `Quick test_counters_json;
    Alcotest.test_case "Chrome trace export is well-formed" `Quick test_trace_events_json;
    Alcotest.test_case "Config.make defaults" `Quick test_config_defaults;
  ]
