(* The telemetry layer: the typed counter registry must reconcile with
   the channel totals the engine has always maintained, the instrumented
   schedule must reproduce the uninstrumented run exactly (cycles,
   stalls, outputs), stall attribution must blame the channel that
   actually causes the Fig. 4 deadlock, and the Chrome trace export must
   be well-formed trace_event JSON. *)
module Engine = Sf_sim.Engine
module Telemetry = Sf_sim.Telemetry
module Interp = Sf_reference.Interp
module Diag = Sf_support.Diag
module Json = Sf_support.Json

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

(* The same over random programs: the cheap config takes the ready set,
   quiescence jumps and chunked fast-forward windows, its telemetry-on
   twin runs every component every cycle. Cycles, unit stalls,
   high-water marks, output bits and validity masks must all agree. *)
let prop_schedules_agree =
  QCheck.Test.make ~count:300 ~name:"random programs: fast-forward matches run-everything"
    Program_gen.arbitrary_adversarial_program (fun p ->
      let inputs = Interp.random_inputs p in
      let signature config =
        match Engine.run_exn ~config ~inputs p with
        | Engine.Deadlocked { cycle; _ } -> QCheck.Test.fail_reportf "deadlock at cycle %d" cycle
        | Engine.Completed s ->
            ( s.Engine.cycles,
              Telemetry.unit_stalls s.Engine.telemetry,
              Telemetry.channel_high_water s.Engine.telemetry,
              List.map
                (fun (n, (r : Interp.result)) ->
                  (n, Array.map Int64.bits_of_float r.Interp.tensor.Sf_reference.Tensor.data,
                   r.Interp.valid))
                s.Engine.results )
      in
      signature cheap = signature (instrumented ()))

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

let deadlock_config =
  {
    (instrumented ()) with
    Engine.Config.override_edge_buffers = [ (("a", "c"), 0) ];
    Engine.Config.channel_slack = 2;
    Engine.Config.safety = Engine.Config.safety ~deadlock_window:256 ();
  }

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
  Alcotest.(check int) "writer buffer" 8 c.Engine.Config.bandwidth.Engine.Config.writer_buffer;
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
    Alcotest.test_case "disabled report keeps always-on aggregates" `Quick
      test_disabled_report_shape;
    Alcotest.test_case "attribution blames the undersized channel" `Quick
      test_attribution_names_blocking_channel;
    Alcotest.test_case "deadlock and timeout diagnostics" `Quick test_failure_diags;
    Alcotest.test_case "counters JSON round-trips" `Quick test_counters_json;
    Alcotest.test_case "Chrome trace export is well-formed" `Quick test_trace_events_json;
    Alcotest.test_case "Config.make defaults" `Quick test_config_defaults;
  ]
