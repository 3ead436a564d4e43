open Sf_ir
module Tensor = Sf_reference.Tensor
module Interp = Sf_reference.Interp
module Diag = Sf_support.Diag

module Config = struct
  type bandwidth = { mem_bytes_per_cycle : float }
  type network = { net_bytes_per_cycle : float; net_latency_cycles : int }
  type safety = { deadlock_window : int; max_cycles : int option }
  type tracing = { trace_interval : int option; telemetry : bool }
  type faults = { plan : Fault_plan.t option; fault_seed : int }

  let bandwidth ?(mem_bytes_per_cycle = infinity) () = { mem_bytes_per_cycle }

  let network ?(net_bytes_per_cycle = infinity) ?(net_latency_cycles = 64) () =
    { net_bytes_per_cycle; net_latency_cycles }

  let safety ?(deadlock_window = 4096) ?max_cycles () = { deadlock_window; max_cycles }
  let tracing ?trace_interval ?(telemetry = false) () = { trace_interval; telemetry }

  let faults ?plan ?(seed = 1) () = { plan; fault_seed = seed }

  type t = {
    latency : Sf_analysis.Latency.config;
    channel_slack : int;
    override_edge_buffers : ((string * string) * int) list;
    bandwidth : bandwidth;
    network : network;
    safety : safety;
    tracing : tracing;
    faults : faults;
  }

  type par_mode = [ `Sequential | `Domains_per_device ]
  type parallelism = unit

  let parallelism ?mode:(_ : par_mode option) () = ()

  let make ?(latency = Sf_analysis.Latency.default) ?(channel_slack = 4)
      ?(override_edge_buffers = []) ?bandwidth:(bw = bandwidth ()) ?network:(net = network ())
      ?safety:(sf = safety ()) ?tracing:(tr = tracing ()) ?parallelism:(() = ())
      ?faults:(fl = faults ()) () =
    {
      latency;
      channel_slack;
      override_edge_buffers;
      bandwidth = bw;
      network = net;
      safety = sf;
      tracing = tr;
      faults = fl;
    }

  let default = make ()

  module F = Sf_support.Fingerprint

  let latency_fingerprint (l : Sf_analysis.Latency.config) =
    F.digest (fun st ->
        List.iter (F.add_int st)
          [
            l.Sf_analysis.Latency.add;
            l.mul;
            l.div;
            l.sqrt;
            l.compare;
            l.logic;
            l.select;
            l.call;
            l.min_max;
          ])

  let fingerprint (c : t) =
    F.digest (fun st ->
        F.add_fingerprint st (latency_fingerprint c.latency);
        F.add_int st c.channel_slack;
        F.add_list st
          (fun st ((src, dst), n) ->
            F.add_string st src;
            F.add_string st dst;
            F.add_int st n)
          c.override_edge_buffers;
        F.add_float st c.bandwidth.mem_bytes_per_cycle;
        F.add_float st c.network.net_bytes_per_cycle;
        F.add_int st c.network.net_latency_cycles;
        F.add_int st c.safety.deadlock_window;
        F.add_option st F.add_int c.safety.max_cycles;
        F.add_option st F.add_int c.tracing.trace_interval;
        F.add_bool st c.tracing.telemetry;
        F.add_option st (fun st p -> F.add_string st (Fault_plan.to_string p)) c.faults.plan;
        F.add_int st c.faults.fault_seed)
end

type config = Config.t

type stats = {
  cycles : int;
  predicted_cycles : int;
  results : (string * Interp.result) list;
  bytes_read : int;
  bytes_written : int;
  network_bytes : int;
  telemetry : Telemetry.report;
  faults : Fault_plan.summary;
}

type outcome =
  | Completed of stats
  | Deadlocked of {
      cycle : int;
      blocked : (string * string) list;
      wait_cycle : string list;
      timed_out : bool;
      telemetry : Telemetry.report;
      faults : Fault_plan.summary;
    }

(* The system model, its constructor, the scheduler and the counter
   harvest live in [Internal] so the benchmark and the test oracle can
   drive the same components; see engine.mli for the contract. The
   engine below opens it. *)
module Internal = struct
(* One simulated system: all channels, units, readers, writers and links,
   each paired with its telemetry probe (absent when telemetry is off). *)
type system = {
  channels : Channel.t list ref;
  units : (Stencil_unit.t * Telemetry.probe option) list;
  readers : (Memory_unit.Reader.t * Telemetry.probe option) list;
  writers : (string * Memory_unit.Writer.t * Telemetry.probe option) list;
  links : (Link.t * Telemetry.probe option) list;
  mem_controllers : Controller.t array;
  prefetch_bytes : int;
  writers_done : int ref;
      (* Completed-writer counter, bumped by each writer's on_done hook
         so the hot loop's termination test is one integer compare. *)
  (* Wait-for relationships for deadlock diagnosis: which component
     consumes each channel, and which component produces each field for a
     given consumer. *)
  channel_consumer : (string, string) Hashtbl.t;
  producer_for : (string * string, string) Hashtbl.t;
}

let build_plan ~config ~telemetry ~placement ~inputs (plan : Interp.plan) =
  let checked = plan.Interp.checked in
  let p = Program.Checked.program checked in
  let { Config.latency; channel_slack; override_edge_buffers; bandwidth; network; _ } =
    config
  in
  let { Config.mem_bytes_per_cycle } = bandwidth in
  let { Config.net_bytes_per_cycle; net_latency_cycles } = network in
  let analysis = Sf_analysis.Delay_buffer.of_checked ~config:latency checked in
  let w = p.Program.vector_width in
  let element_bytes = Dtype.size_bytes p.Program.dtype in
  let word_bytes = w * element_bytes in
  let full_rank = Program.rank p in
  let num_devices =
    1 + List.fold_left (fun acc s -> max acc (placement s.Stencil.name)) 0 p.Program.stencils
  in
  let mem_controllers =
    Array.init num_devices (fun _ -> Controller.create ~bytes_per_cycle:mem_bytes_per_cycle)
  in
  let channels = ref [] in
  let new_channel ?validity name capacity =
    let c = Channel.create_vec ?validity ~width:w ~name ~capacity () in
    channels := c :: !channels;
    c
  in
  let fault_depths =
    match config.Config.faults.Config.plan with
    | Some pl -> pl.Fault_plan.depth_overrides
    | None -> []
  in
  let buffer_for ~src ~dst =
    match List.assoc_opt (src, dst) override_edge_buffers with
    | Some b -> b
    | None -> (
        match List.assoc_opt (src, dst) fault_depths with
        | Some b -> b
        | None -> Sf_analysis.Delay_buffer.buffer_for analysis ~src ~dst)
  in
  let links : (int * int, Link.t * Telemetry.probe option) Hashtbl.t = Hashtbl.create 4 in
  let link_between d1 d2 =
    let key = (min d1 d2, max d1 d2) in
    match Hashtbl.find_opt links key with
    | Some (l, _) -> l
    | None ->
        let name = Printf.sprintf "link%d-%d" (fst key) (snd key) in
        let probe = Telemetry.probe telemetry ~kind:Telemetry.Link ~name in
        let l =
          Link.create ?probe ~name ~bytes_per_cycle:net_bytes_per_cycle
            ~latency_cycles:net_latency_cycles ()
        in
        Hashtbl.replace links key (l, probe);
        l
  in
  (* Every lookup by name reads the check's facts. Only stencils have a
     home device: inputs live wherever their consumers do. *)
  let consumers = Program.Checked.consumers checked and device_of = placement in
  (* Input channel of each consumer edge, keyed by (src, dst). Cross-device
     edges get a source-side channel, a link port, and the destination-side
     channel with the analysed delay buffer. *)
  let dst_channel : (string * string, Channel.t) Hashtbl.t = Hashtbl.create 32 in
  let src_endpoint : (string * string, Channel.t) Hashtbl.t = Hashtbl.create 32 in
  let channel_consumer : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let producer_for : (string * string, string) Hashtbl.t = Hashtbl.create 32 in
  let make_edge ~src ~dst ~src_device ~dst_device =
    let cap = buffer_for ~src ~dst + channel_slack in
    Hashtbl.replace producer_for (dst, src) src;
    if src_device = dst_device then begin
      let c = new_channel (Printf.sprintf "%s->%s" src dst) cap in
      Hashtbl.replace channel_consumer (Channel.name c) dst;
      Hashtbl.replace dst_channel (src, dst) c;
      Hashtbl.replace src_endpoint (src, dst) c
    end
    else begin
      let near = new_channel (Printf.sprintf "%s->%s.tx" src dst) channel_slack in
      let far = new_channel (Printf.sprintf "%s->%s.rx" src dst) cap in
      Hashtbl.replace channel_consumer (Channel.name near) dst;
      Hashtbl.replace channel_consumer (Channel.name far) dst;
      let link = link_between src_device dst_device in
      Link.add_port link ~src:near ~dst:far ~word_bytes;
      Hashtbl.replace dst_channel (src, dst) far;
      Hashtbl.replace src_endpoint (src, dst) near
    end
  in
  (* Create edges: stencil -> stencil. *)
  List.iter
    (fun s ->
      let dst = s.Stencil.name in
      List.iter
        (fun src ->
          match Program.Checked.find checked src with
          | Program.Op _ ->
              make_edge ~src ~dst ~src_device:(device_of src) ~dst_device:(device_of dst)
          | Program.Input _ -> ())
        (Program.Checked.reads checked dst))
    p.Program.stencils;
  (* Readers: one per (full-rank input field, device); they multicast to
     every consumer on that device. Lower-dimensional fields are prefetched
     straight into consuming units and accounted once per device. *)
  let input_tensor name =
    match List.assoc_opt name inputs with
    | Some t -> t
    | None -> raise (Interp.Runtime_error (Printf.sprintf "missing input data for field %s" name))
  in
  let readers = ref [] in
  let prefetch_bytes = ref 0 in
  List.iter
    (fun (f : Field.t) ->
      let consumers = consumers f.Field.name in
      let devices = List.sort_uniq compare (List.map device_of consumers) in
      if Field.rank f = full_rank then
        List.iter
          (fun d ->
            let consumer_channels =
              List.filter_map
                (fun c ->
                  if device_of c = d then begin
                    let cap = buffer_for ~src:f.Field.name ~dst:c + channel_slack in
                    let ch = new_channel (Printf.sprintf "%s->%s" f.Field.name c) cap in
                    Hashtbl.replace channel_consumer (Channel.name ch) c;
                    Hashtbl.replace producer_for (c, f.Field.name)
                      (Printf.sprintf "read.%s@%d" f.Field.name d);
                    Hashtbl.replace dst_channel (f.Field.name, c) ch;
                    Some ch
                  end
                  else None)
                consumers
            in
            let tensor = { (input_tensor f.Field.name) with Tensor.extent = Interp.input_extent p f } in
            let name = Printf.sprintf "read.%s@%d" f.Field.name d in
            let probe = Telemetry.probe telemetry ~kind:Telemetry.Reader ~name in
            let r =
              Memory_unit.Reader.create ?probe ~name ~tensor ~vector_width:w
                ~element_bytes:(Dtype.size_bytes f.Field.dtype) ~controller:mem_controllers.(d)
                ~outputs:consumer_channels ()
            in
            readers := (r, probe) :: !readers)
          devices
      else
        List.iter
          (fun _ -> prefetch_bytes := !prefetch_bytes + Field.size_bytes f ~shape:p.Program.shape)
          devices)
    p.Program.inputs;
  (* Writers for declared outputs. *)
  let writers = ref [] in
  let writers_done = ref 0 in
  let writer_channels : (string * Channel.t) list =
    List.map
      (fun o ->
        (* 8 words of buffering in front of each memory writer. *)
        let cap = channel_slack + 8 in
        (* Writers alone read validity flags. *)
        let c = new_channel ~validity:true (Printf.sprintf "%s->mem" o) cap in
        let d = device_of o in
        let name = Printf.sprintf "write.%s@%d" o d in
        Hashtbl.replace channel_consumer (Channel.name c) name;
        let probe = Telemetry.probe telemetry ~kind:Telemetry.Writer ~name in
        let writer =
          Memory_unit.Writer.create ?probe
            ~on_done:(fun () -> incr writers_done)
            ~name ~shape:p.Program.shape ~vector_width:w ~element_bytes
            ~controller:mem_controllers.(d) ~input:c ()
        in
        writers := (o, writer, probe) :: !writers;
        (o, c))
      p.Program.outputs
  in
  (* Stencil units, in topological order. *)
  let units =
    List.map
      (fun (s, lowered) ->
        let name = s.Stencil.name in
        let bindings =
          List.map
            (fun field ->
              match Program.Checked.find checked field with
              | Program.Input f when Field.rank f < full_rank ->
                  let tensor =
                    { (input_tensor field) with Tensor.extent = Interp.input_extent p f }
                  in
                  { Stencil_unit.field; axes = f.Field.axes; channel = None;
                    prefetched = Some tensor }
              | Program.Input _ | Program.Op _ ->
                  {
                    Stencil_unit.field;
                    axes = Program.Checked.axes checked field;
                    channel = Some (Hashtbl.find dst_channel (field, name));
                    prefetched = None;
                  })
            (Program.Checked.reads checked name)
        in
        let consumer_outputs =
          List.filter_map
            (fun c -> Hashtbl.find_opt src_endpoint (name, c))
            (consumers name)
        in
        let writer_output = List.assoc_opt name writer_channels in
        let outputs = consumer_outputs @ Option.to_list writer_output in
        let info = Sf_analysis.Delay_buffer.node_info analysis name in
        let probe = Telemetry.probe telemetry ~kind:Telemetry.Unit ~name in
        ( Stencil_unit.create ?probe ~program:p ~stencil:s ~lowered ~info ~inputs:bindings
            ~outputs (),
          probe ))
      plan.Interp.stages
  in
  let predicted =
    analysis.Sf_analysis.Delay_buffer.latency_cycles + (Program.cells p / w)
  in
  ( {
      channels;
      units;
      readers = List.rev !readers;
      writers = List.rev !writers;
      links = Hashtbl.fold (fun _ l acc -> l :: acc) links [];
      mem_controllers;
      prefetch_bytes = !prefetch_bytes;
      writers_done;
      channel_consumer;
      producer_for;
    },
    predicted )

let build ~config ~telemetry ~placement ~inputs p =
  build_plan ~config ~telemetry ~placement ~inputs (Interp.plan p)

(* Freeze the counter registry: per-component push/pop/byte counts are
   harvested once here from the always-on channel and controller
   counters, so the hot loop pays nothing for them; cause breakdowns
   come from the probes when telemetry was enabled. *)
let harvest ~telemetry ~system ~cycles ~samples =
  let sum_pushed chans = List.fold_left (fun a c -> a + Channel.total_pushed c) 0 chans in
  let sum_popped chans = List.fold_left (fun a c -> a + Channel.total_popped c) 0 chans in
  let unit_rows =
    List.map
      (fun (u, probe) ->
        Telemetry.counters_row ?probe ~stalled:(Stencil_unit.stall_cycles u)
          ~pushes:(sum_pushed (Stencil_unit.output_channels u))
          ~pops:(sum_popped (Stencil_unit.input_channels u))
          ~name:(Stencil_unit.name u) ~kind:Telemetry.Unit ())
      system.units
  in
  let reader_rows =
    List.map
      (fun (r, probe) ->
        Telemetry.counters_row ?probe
          ~pushes:(sum_pushed (Memory_unit.Reader.output_channels r))
          ~bytes:(Memory_unit.Reader.words_streamed r * Memory_unit.Reader.word_bytes r)
          ~name:(Memory_unit.Reader.name r) ~kind:Telemetry.Reader ())
      system.readers
  in
  let writer_rows =
    List.map
      (fun (_, w, probe) ->
        Telemetry.counters_row ?probe
          ~pops:(Channel.total_popped (Memory_unit.Writer.input_channel w))
          ~bytes:(Memory_unit.Writer.bytes_committed w)
          ~name:(Memory_unit.Writer.name w) ~kind:Telemetry.Writer ())
      system.writers
  in
  let link_rows =
    List.map
      (fun (l, probe) ->
        let ports = Link.port_channels l in
        Telemetry.counters_row ?probe
          ~pushes:(sum_pushed (List.map snd ports))
          ~pops:(sum_popped (List.map fst ports))
          ~bytes:(Link.bytes_transferred l) ~name:(Link.name l) ~kind:Telemetry.Link ())
      system.links
  in
  let channels =
    List.map
      (fun c ->
        {
          Telemetry.channel = Channel.name c;
          capacity = Channel.capacity c;
          high_water = Channel.high_water c;
          total_pushed = Channel.total_pushed c;
          total_popped = Channel.total_popped c;
        })
      (List.rev !(system.channels))
  in
  Telemetry.freeze telemetry ~cycles
    ~components:(unit_rows @ reader_rows @ writer_rows @ link_rows)
    ~channels ~samples

(* Assemble the completion stats of a finished system. *)
let completed_stats ~faults ~system ~predicted ~cycles ~report =
  (* Controllers account reads and writes together; split the writes
     back out below. Prefetched lower-dimensional inputs are charged
     once per device replica. *)
  let bytes_granted =
    system.prefetch_bytes
    + Array.fold_left (fun acc c -> acc + Controller.bytes_granted c) 0 system.mem_controllers
  in
  let bytes_written =
    List.fold_left (fun acc (_, w, _) -> acc + Memory_unit.Writer.bytes_committed w) 0 system.writers
  in
  {
    cycles;
    predicted_cycles = predicted;
    results = List.map (fun (o, w, _) -> (o, Memory_unit.Writer.result w)) system.writers;
    bytes_read = bytes_granted - bytes_written;
    bytes_written;
    network_bytes =
      List.fold_left (fun acc (l, _) -> acc + Link.bytes_transferred l) 0 system.links;
    telemetry = report;
    faults;
  }

(* Compare a completed run's outputs against the reference
   interpreter's ([run_and_validate]). *)
let compare_outputs ~reference stats =
  let mismatch fmt =
    Format.kasprintf (fun m -> Error (Diag.error ~code:Diag.Code.sim_mismatch m)) fmt
  in
  let rec check = function
    | [] -> Ok stats
    | (name, simulated) :: rest -> (
        match List.assoc_opt name reference with
        | None -> mismatch "output %s missing from reference" name
        | Some expected ->
            let (simulated : Interp.result) = simulated in
            if simulated.Interp.valid <> expected.Interp.valid then
              mismatch "output %s: validity masks differ" name
            else begin
              let worst = ref 0. in
              let got = simulated.Interp.tensor.Tensor.data
              and want = expected.Interp.tensor.Tensor.data in
              for i = 0 to Array.length got - 1 do
                if expected.Interp.valid.(i) then begin
                  let d = Float.abs (got.(i) -. want.(i)) in
                  if d > !worst then worst := d
                end
              done;
              if !worst > 1e-9 then
                mismatch "output %s: max deviation %g from reference" name !worst
              else check rest
            end)
  in
  check stats.results

let compare_to_reference ~inputs (p : Program.t) stats =
  compare_outputs ~reference:(Interp.run p ~inputs) stats

(* ------------------------------------------------------------------ *)
(* The per-device scheduler.                                           *)
(*                                                                     *)
(* The seed engine ran every component every cycle in a fixed order:   *)
(* links, writers, units in reverse topological order (consumers       *)
(* before producers), readers. That order defines when data and buffer *)
(* space become visible, and every schedule below reproduces its cycle *)
(* counts, stalls, high-water marks, deadlock diagnoses and output     *)
(* bits exactly; see docs/SIMULATOR.md and test/test_sim_parity.ml.    *)
(*                                                                     *)
(* Ready set: a component that provably cannot progress sleeps until   *)
(* one of its channels changes state (producer pushed, consumer        *)
(* popped), its wake timer fires (link word matured, pending word      *)
(* released) or a fault transition targets it. Its slept cycles are    *)
(* credited lazily as repeats of the cycle it fell asleep on. When     *)
(* everything sleeps, a quiescence jump skips to the next timer, never *)
(* past the limit of the current advance.                              *)
(*                                                                     *)
(* Fast-forward: when every awake component can repeat one action each *)
(* cycle (Stencil_unit.plan, one word per reader and writer, each link *)
(* port delivering, injecting or idle per Link.plan), the window is    *)
(* bounded by those plans, by channel occupancies and by the wake      *)
(* timers of sleepers. A sleeper stays out of the window if the window *)
(* neither pushes a channel it consumes nor pops one it produces, so   *)
(* nothing could wake it. The window then runs in chunks of up to      *)
(* Channel.chunk cycles: link deliveries first (a link runs first in a *)
(* cycle, so its consumer sees the word the same cycle), then          *)
(* producers before consumers (readers, units in topological order,   *)
(* writers, link injections), each component doing its chunk of        *)
(* cycles at once: a unit evaluates a chunk of words per dispatch.     *)
(* Values are exact (a unit's outputs depend only on the order of the  *)
(* words it pops), channels hold the chunk in slots past their         *)
(* capacity, and each pushed channel's high-water mark is settled at   *)
(* the end: in cycle order its occupancy was constant or only grew     *)
(* (one word above constant when a delivery precedes the pop).         *)
(*                                                                     *)
(* Every run takes this one schedule. Windows and jumps stop short of  *)
(* occupancy samples and fault transitions, and no window runs during  *)
(* a fault burst.                                                      *)
(* ------------------------------------------------------------------ *)

type comp =
  | Clink of Link.t
  | Cwriter of Memory_unit.Writer.t
  | Cunit of Stencil_unit.t
  | Creader of Memory_unit.Reader.t

(* Links, then writers, units consumers-before-producers (reverse
   topological order — data pushed this cycle becomes visible next
   cycle, space freed this cycle is reusable immediately, matching
   credit-based hardware), readers. The reversal happens once here, not
   per cycle. *)
let components system =
  Array.of_list
    (List.map (fun (l, _) -> Clink l) system.links
    @ List.map (fun (_, w, _) -> Cwriter w) system.writers
    @ List.rev_map (fun (u, _) -> Cunit u) system.units
    @ List.map (fun (r, _) -> Creader r) system.readers)

type sched = {
  advance : limit:int -> unit;
  now : unit -> int;
  windowed : unit -> int;
  windows : unit -> int;
  deadlocked : unit -> bool;
  samples : unit -> (int * (string * int) list) list;
}

let scheduler ~config ?injector ~finished system =
  let { Config.deadlock_window; _ } = config.Config.safety in
  let { Config.trace_interval; _ } = config.Config.tracing in
  let controllers = system.mem_controllers in
  let comps = components system in
  let cycle = ref 0 in
  let idle_cycles = ref 0 in
  let deadlocked = ref false in
  let trace = ref [] in
  let ncomps = Array.length comps in
  (* Ready-set state. [ready.(i)] means component i must run next cycle;
     a sleeping component is provably inert until a wake hook, its
     [wake_at] timer or a fault transition fires, so skipping it cannot
     change any observable state. [last_ran] is the last cycle whose
     stall and telemetry records component i has been credited with. *)
  let ready = Array.make ncomps true in
  let wake_at = Array.make ncomps max_int in
  let last_ran = Array.make ncomps (-1) in
  let probes =
    Array.map
      (function
        | Clink l -> List.assq l system.links
        | Cwriter w -> List.find_map (fun (_, w', p) -> if w' == w then p else None) system.writers
        | Cunit u -> List.assq u system.units
        | Creader r -> List.assq r system.readers)
      comps
  in
  (* Credit the cycles component i slept through before [now]: each
     repeats the no-progress record it went to sleep on. *)
  let credit i ~now =
    let n = now - 1 - last_ran.(i) in
    if n > 0 then begin
      (match comps.(i) with
      | Cunit u when not (Stencil_unit.is_done u) -> Stencil_unit.add_stalls u n
      | Clink _ | Cwriter _ | Cunit _ | Creader _ -> ());
      Option.iter (fun p -> Telemetry.sleep p ~now:(now - n) ~cycles:n) probes.(i);
      last_ran.(i) <- now - 1
    end
  in
  (* Wake hooks, derived from the component structure: a push wakes the
     channel's consumer, a pop wakes its producer. *)
  let consumer_idx : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let producer_idx : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let mark tbl i c = Hashtbl.replace tbl (Channel.name c) i in
  Array.iteri
    (fun i comp ->
      match comp with
      | Clink l ->
          List.iter
            (fun (src, dst) ->
              mark consumer_idx i src;
              mark producer_idx i dst)
            (Link.port_channels l)
      | Cwriter w -> mark consumer_idx i (Memory_unit.Writer.input_channel w)
      | Cunit u ->
          List.iter (mark consumer_idx i) (Stencil_unit.input_channels u);
          List.iter (mark producer_idx i) (Stencil_unit.output_channels u)
      | Creader r -> List.iter (mark producer_idx i) (Memory_unit.Reader.output_channels r))
    comps;
  (* Every channel, in creation order. *)
  let all_channels = Array.of_list (List.rev !(system.channels)) in
  Array.iter
    (fun c ->
      let wake tbl =
        let i = Hashtbl.find tbl (Channel.name c) in
        fun () -> ready.(i) <- true
      in
      Channel.set_hooks c ~on_push:(wake consumer_idx) ~on_pop:(wake producer_idx))
    all_channels;
  let sample_trace () =
    match trace_interval with
    | Some interval when !cycle mod interval = 0 ->
        let snapshot =
          Array.fold_right
            (fun c acc -> (Channel.name c, Channel.occupancy c) :: acc)
            all_channels []
        in
        trace := (!cycle, snapshot) :: !trace
    | Some _ | None -> ()
  in
  (* Fast-forward windows need every memory grant to be plannable, so
     unlimited memory bandwidth. Links plan their own budgets
     ([Link.fit]); a delivery pushes before its consumer pops, which
     the channel checks and high-water marks below allow for. *)
  let batchable = Array.for_all Controller.is_unlimited controllers in
  (* The first cycle from [from] on that must be stepped, because it
     samples occupancies or a fault stream changes state there. Windows
     and jumps stop short of it. *)
  let must_step ~from =
    let h = match injector with Some inj -> Fault_plan.horizon inj | None -> max_int in
    match trace_interval with Some iv -> Int.min h ((from + iv - 1) / iv * iv) | None -> h
  in
  (* A fault transition wakes the component it targets (a memory
     controller's flag changes no sleeper's record). *)
  let by_name = Hashtbl.create 64 in
  Array.iteri
    (fun i -> function
      | Clink l -> Hashtbl.replace by_name (Link.name l) i
      | Cwriter w -> Hashtbl.replace by_name (Memory_unit.Writer.name w) i
      | Cunit u -> Hashtbl.replace by_name (Stencil_unit.name u) i
      | Creader _ -> ())
    comps;
  let wake name = Option.iter (fun i -> ready.(i) <- true) (Hashtbl.find_opt by_name name) in
  (* Channel indices: each channel's consumer and producer component,
     and each component's input and output channels. *)
  let nchan = Array.length all_channels in
  let chan_idx : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri (fun i c -> Hashtbl.replace chan_idx (Channel.name c) i) all_channels;
  let comp_of tbl = Array.map (fun c -> Hashtbl.find tbl (Channel.name c)) all_channels in
  let consumer = comp_of consumer_idx and producer = comp_of producer_idx in
  let indices chans =
    Array.of_list (List.map (fun c -> Hashtbl.find chan_idx (Channel.name c)) chans)
  in
  (* A link's inputs and outputs are its ports' near and far channels,
     in port order. *)
  let ins =
    Array.map
      (function
        | Cwriter w -> indices [ Memory_unit.Writer.input_channel w ]
        | Cunit u -> indices (Stencil_unit.input_channels u)
        | Clink l -> indices (List.map fst (Link.port_channels l))
        | Creader _ -> [||])
      comps
  in
  let outs =
    Array.map
      (function
        | Cunit u -> indices (Stencil_unit.output_channels u)
        | Creader r -> indices (Memory_unit.Reader.output_channels r)
        | Clink l -> indices (List.map snd (Link.port_channels l))
        | Cwriter _ -> [||])
      comps
  in
  let pushed = Array.make nchan false in
  let popped = Array.make nchan false in
  (* [delivered]: pushed by a link delivery, before its consumer pops.
     [idle_src]: the source of a port that does not inject in the
     window, which a push would set injecting. *)
  let delivered = Array.make nchan false in
  let idle_src = Array.make nchan false in
  let active = Array.make ncomps false in
  let asleep = Array.make ncomps false in
  let windowed = ref 0 and windows = ref 0 in
  (* Try to advance the whole system k >= 2 cycles at once, short of
     [limit]. Every awake non-done component must repeat one action each
     cycle of the window and is [active]; every sleeping one must stay
     asleep and is [asleep]. Consumers precede producers in [comps], so a
     channel both pushed and popped keeps constant occupancy and needs
     one word in it, or room for one more when a link delivers into it;
     push-only channels bound k by free space, pop-only ones by
     occupancy. Anything else leaves the cycle to the per-cycle path. *)
  let attempt_batch ~limit =
    let now = !cycle in
    Array.fill pushed 0 nchan false;
    Array.fill popped 0 nchan false;
    Array.fill delivered 0 nchan false;
    Array.fill idle_src 0 nchan false;
    let k = ref (Int.min limit (must_step ~from:now) - now) and any = ref false in
    let ok = ref (!k >= 2) in
    let j = ref 0 in
    while !ok && !j < ncomps do
      let i = !j in
      let c = comps.(i) in
      let is_done =
        match c with
        | Clink _ -> false
        | Cwriter w -> Memory_unit.Writer.is_done w
        | Cunit u -> Stencil_unit.is_done u
        | Creader r -> Memory_unit.Reader.is_done r
      in
      active.(i) <- false;
      asleep.(i) <- (not is_done) && (not ready.(i)) && wake_at.(i) > now;
      if asleep.(i) then k := Int.min !k (wake_at.(i) - now)
      else if not is_done then begin
        let h =
          match c with
          | Clink l -> Link.plan l ~now
          | Cwriter w -> Memory_unit.Writer.words_remaining w
          | Cunit u -> Stencil_unit.plan u ~now
          | Creader r -> Memory_unit.Reader.words_remaining r
        in
        if h = 0 then ok := false
        else begin
          active.(i) <- true;
          any := true;
          k := Int.min !k h;
          let ins = ins.(i) and outs = outs.(i) in
          match c with
          | Clink l ->
              for x = 0 to Array.length ins - 1 do
                if Link.plan_injects l x then popped.(ins.(x)) <- true
                else idle_src.(ins.(x)) <- true
              done;
              for x = 0 to Array.length outs - 1 do
                if Link.plan_delivers l x then begin
                  pushed.(outs.(x)) <- true;
                  delivered.(outs.(x)) <- true
                end
              done
          | Cwriter _ | Cunit _ | Creader _ ->
              for x = 0 to Array.length ins - 1 do
                if match c with Cunit u -> Stencil_unit.plan_pops u x | _ -> true then
                  popped.(ins.(x)) <- true
              done;
              if match c with Cunit u -> Stencil_unit.plan_flush u | _ -> true then
                for x = 0 to Array.length outs - 1 do
                  pushed.(outs.(x)) <- true
                done
        end
      end;
      incr j
    done;
    if !ok then
      for ci = 0 to nchan - 1 do
        let occ = Channel.occupancy all_channels.(ci) in
        let cap = Channel.capacity all_channels.(ci) in
        if (pushed.(ci) && (asleep.(consumer.(ci)) || idle_src.(ci)))
           || (popped.(ci) && asleep.(producer.(ci)))
        then ok := false
        else if pushed.(ci) && popped.(ci) then begin
          if (delivered.(ci) && occ >= cap) || ((not delivered.(ci)) && occ < 1) then ok := false
        end
        else if pushed.(ci) then k := Int.min !k (cap - occ)
        else if popped.(ci) then k := Int.min !k occ
      done;
    (* Links check maturity and budgets last, against the final bound,
       and may cap the chunk. *)
    let chunk = ref Channel.chunk in
    if !ok && !any && !k >= 2 then
      for i = 0 to ncomps - 1 do
        if active.(i) then
          match comps.(i) with
          | Clink l ->
              k := Link.fit l ~now !k;
              chunk := Int.min !chunk (Link.plan_chunk l)
          | Cwriter _ | Cunit _ | Creader _ -> ()
      done;
    if !ok && !any && !k >= 2 then begin
      let kk = !k in
      for i = 0 to ncomps - 1 do
        if active.(i) then begin
          credit i ~now;
          Option.iter (fun p -> Telemetry.busy p ~now ~cycles:kk) probes.(i);
          last_ran.(i) <- now + kk - 1
        end
      done;
      (* Deliveries first, as links run first in a cycle and a delivered
         word is visible to its consumer the same cycle; then producers
         before consumers, so injections (links) come last. *)
      let rel = ref 0 in
      while !rel < kk do
        let n = Int.min !chunk (kk - !rel) in
        for i = 0 to ncomps - 1 do
          if active.(i) then
            match comps.(i) with
            | Clink l -> Link.run_deliver l n
            | Cwriter _ | Cunit _ | Creader _ -> ()
        done;
        for i = ncomps - 1 downto 0 do
          if active.(i) then
            match comps.(i) with
            | Clink l -> Link.run_inject l ~now:(now + !rel) n
            | Cwriter w -> Memory_unit.Writer.run_fast w n
            | Cunit u -> Stencil_unit.run_planned u ~now:(now + !rel) n
            | Creader r -> Memory_unit.Reader.run_fast r n
        done;
        rel := !rel + n
      done;
      for ci = 0 to nchan - 1 do
        if pushed.(ci) then
          Channel.Unsafe.settle_high_water
            ~ahead:(if delivered.(ci) && popped.(ci) then 1 else 0)
            all_channels.(ci)
      done;
      cycle := now + kk;
      idle_cycles := 0;
      windowed := !windowed + kk;
      incr windows;
      true
    end
    else false
  in
  let step ~limit =
    let now = !cycle in
    Array.iter (fun c -> Controller.begin_cycle c ~now) controllers;
    (match injector with Some inj -> Fault_plan.tick inj ~now ~wake | None -> ());
    let progress = ref false in
    (* Every kind sleeps only after a cycle without progress, so the
       record it is credited with while asleep is that cycle's. *)
    for i = 0 to ncomps - 1 do
      if ready.(i) || wake_at.(i) <= now then begin
        if wake_at.(i) <= now then wake_at.(i) <- max_int;
        ready.(i) <- true;
        credit i ~now;
        (match comps.(i) with
        | Clink l ->
            if Link.cycle l ~now then progress := true
            else if Link.sources_empty l then begin
              ready.(i) <- false;
              wake_at.(i) <- Link.next_arrival l ~now
            end
        | Cwriter w ->
            (* Sleep only when inert: done, or nothing to pop. A
               bandwidth-denied writer must retry after the refill. *)
            if Memory_unit.Writer.cycle w ~now then progress := true
            else if
              Memory_unit.Writer.is_done w
              || Channel.is_empty (Memory_unit.Writer.input_channel w)
            then ready.(i) <- false
        | Cunit u ->
            if Stencil_unit.cycle u ~now then progress := true
            else begin
              ready.(i) <- false;
              let nr = Stencil_unit.next_release u in
              if nr > now then wake_at.(i) <- nr
            end
        | Creader r ->
            if Memory_unit.Reader.cycle r ~now then progress := true
            else if
              Memory_unit.Reader.is_done r || Memory_unit.Reader.full_outputs r <> []
            then ready.(i) <- false);
        last_ran.(i) <- now
      end
    done;
    sample_trace ();
    if !progress then idle_cycles := 0
    else begin
      incr idle_cycles;
      if !idle_cycles > deadlock_window then deadlocked := true
    end;
    (* Quiescence jump: with every component asleep, only timers can
       wake the system — skip straight to the earliest one (a wake
       timer, a fault transition or an occupancy sample), to the cycle
       where the idle counter would trip the deadlock window, or to
       [limit], whichever comes first. The skipped cycles are
       provably no-ops (memory and link budgets catch up their refills
       in Controller.begin_cycle), so counters land exactly where the
       seed's cycle-by-cycle spin would put them. *)
    if (not !deadlocked) && (not (Array.exists Fun.id ready)) && not (finished ()) then begin
      let wake_min = Int.min (Array.fold_left min max_int wake_at) (must_step ~from:(now + 1)) in
      let wake_min = if wake_min <= now then now + 1 else wake_min in
      let dead_at = now + (deadlock_window + 1 - !idle_cycles) in
      if dead_at < wake_min && dead_at < limit then begin
        idle_cycles := deadlock_window + 1;
        deadlocked := true;
        cycle := dead_at + 1
      end
      else if wake_min <= dead_at && wake_min < limit then begin
        idle_cycles := !idle_cycles + (wake_min - 1 - now);
        cycle := wake_min
      end
      else begin
        idle_cycles := !idle_cycles + (limit - 1 - now);
        cycle := limit
      end
    end
    else incr cycle
  in
  (* No window runs while a fault burst is active. *)
  let quiet () = match injector with Some inj -> not (Fault_plan.bursting inj) | None -> true in
  let advance ~limit =
    while (not (finished ())) && (not !deadlocked) && !cycle < limit do
      if not (batchable && quiet () && attempt_batch ~limit) then step ~limit
    done;
    (* Settle the lazy credit of components asleep at the exit. *)
    Array.iteri (fun i _ -> credit i ~now:!cycle) comps
  in
  {
    advance;
    now = (fun () -> !cycle);
    windowed = (fun () -> !windowed);
    windows = (fun () -> !windows);
    deadlocked = (fun () -> !deadlocked);
    samples = (fun () -> List.rev !trace);
  }

(* One run: build the system and its fault injector, let [drive] step
   it, then assemble the outcome, diagnosing a run that did not finish.
   [drive] returns the cycles executed, whether the idle window
   tripped, and the occupancy samples. *)
let simulate_plan ~config ~placement ~inputs ~drive plan =
  let telemetry = Telemetry.create ~enabled:config.Config.tracing.Config.telemetry () in
  let system, predicted = build_plan ~config ~telemetry ~placement ~inputs plan in
  (* Fault injection binds the plan's streams to the built components. *)
  let injector =
    match config.Config.faults.Config.plan with
    | None -> None
    | Some plan ->
        Some
          (Fault_plan.create ~seed:config.Config.faults.Config.fault_seed ~plan
             ~links:(List.map fst system.links)
             ~controllers:
               (Array.to_list
                  (Array.mapi
                     (fun d c -> (Printf.sprintf "mem@%d" d, c))
                     system.mem_controllers))
             ~units:(List.map fst system.units)
             ~writers:(List.map (fun (_, w, _) -> w) system.writers))
  in
  let n_writers = List.length system.writers in
  let finished () = !(system.writers_done) >= n_writers in
  let cycle, deadlocked, samples = drive system injector finished in
  let report () = harvest ~telemetry ~system ~cycles:cycle ~samples in
  let faults =
    Option.fold injector ~none:Fault_plan.empty_summary ~some:(Fault_plan.summary ~cycles:cycle)
  in
  if deadlocked || not (finished ()) then begin
    (* Wait-for graph: who is each blocked component waiting on?
       A cycle through it is the circular dependency of Fig. 4. *)
    let module G = Sf_support.Dgraph.Make (String) in
    let g = ref G.empty in
    let ensure v = if not (G.mem_vertex !g v) then g := G.add_vertex !g v () in
    let wait_edge waiter waited =
      ensure waiter;
      ensure waited;
      g := G.add_edge !g ~src:waiter ~dst:waited ()
    in
    List.iter
      (fun (u, _) ->
        let name = Stencil_unit.name u in
        List.iter
          (function
            | Stencil_unit.Input_empty { field; _ } -> (
                match Hashtbl.find_opt system.producer_for (name, field) with
                | Some producer -> wait_edge name producer
                | None -> ())
            | Stencil_unit.Output_full channel -> (
                match Hashtbl.find_opt system.channel_consumer channel with
                | Some consumer -> wait_edge name consumer
                | None -> ()))
          (Stencil_unit.blockages u))
      system.units;
    List.iter
      (fun (r, _) ->
        List.iter
          (fun channel ->
            match Hashtbl.find_opt system.channel_consumer channel with
            | Some consumer -> wait_edge (Memory_unit.Reader.name r) consumer
            | None -> ())
          (Memory_unit.Reader.full_outputs r))
      system.readers;
    List.iter
      (fun (o, w, _) ->
        if Memory_unit.Writer.waiting_on_input w then
          wait_edge (Memory_unit.Writer.name w) o)
      system.writers;
    let wait_cycle =
      match G.topological_sort !g with
      | Ok _ -> []
      | Error remaining ->
          (* Walk successors within the cyclic residue until a repeat. *)
          let in_residue v = List.exists (String.equal v) remaining in
          let rec walk path v =
            if List.exists (String.equal v) path then begin
              (* [path] holds the visit order newest-first; reverse it and
                 trim everything before the first occurrence of v, leaving
                 the cycle in wait-for order (x waits on its successor). *)
              let rec drop = function
                | [] -> []
                | x :: rest -> if String.equal x v then x :: rest else drop rest
              in
              drop (List.rev (v :: path))
            end
            else
              match List.find_opt (fun (s, ()) -> in_residue s) (G.succs !g v) with
              | Some (next, ()) -> walk (v :: path) next
              | None -> []
          in
          (match remaining with [] -> [] | v :: _ -> walk [] v)
    in
    let blocked =
      List.filter_map
        (fun (u, _) ->
          let reason = function
            | Stencil_unit.Input_empty { field; _ } -> "waiting on empty input " ^ field
            | Stencil_unit.Output_full channel -> Printf.sprintf "output %s full" channel
          in
          match Stencil_unit.blockages u with
          | _ when Stencil_unit.is_done u -> None
          | [] -> Some (Stencil_unit.name u, "pipeline in flight")
          | bs -> Some (Stencil_unit.name u, String.concat "; " (List.map reason bs)))
        system.units
      @ List.filter_map
          (fun (r, _) ->
            match Memory_unit.Reader.full_outputs r with
            | _ when Memory_unit.Reader.is_done r -> None
            | [] -> Some (Memory_unit.Reader.name r, "waiting for memory bandwidth")
            | _ :: _ -> Some (Memory_unit.Reader.name r, "consumer channel full"))
          system.readers
      @ List.filter_map
          (fun (_, w, _) ->
            Option.map
              (fun reason -> (Memory_unit.Writer.name w, reason))
              (Memory_unit.Writer.blocked_reason w))
          system.writers
    in
    Deadlocked
      {
        cycle;
        blocked;
        wait_cycle;
        timed_out = not deadlocked;
        telemetry = report ();
        faults;
      }
  end
  else Completed (completed_stats ~faults ~system ~predicted ~cycles:cycle ~report:(report ()))

let simulate ~config ~placement ~inputs ~drive p =
  simulate_plan ~config ~placement ~inputs ~drive (Interp.plan p)
end

open Internal

let run_plan ~config ~placement ~inputs plan =
  let max_cycles = Option.value config.Config.safety.Config.max_cycles ~default:max_int in
  simulate_plan ~config ~placement ~inputs plan ~drive:(fun system injector finished ->
      let s = scheduler ~config ?injector ~finished system in
      s.advance ~limit:max_cycles;
      (s.now (), s.deadlocked (), s.samples ()))

let run_exn ?(config = Config.default) ?(placement = fun _ -> 0) ?inputs (p : Program.t) =
  let inputs = match inputs with Some i -> i | None -> Interp.random_inputs p in
  run_plan ~config ~placement ~inputs (Interp.plan p)

(* The structured failure of a non-completing run: SF0701 for a true
   deadlock (the idle window tripped), SF0703 for a cycle-budget
   timeout. The circular wait and per-component blocked reasons ride
   along as notes, followed by the configured cycle budget on a timeout,
   fault-attribution rows when a fault plan was active, and the top
   stall-attribution rows when telemetry was enabled. *)
let to_result ~config = function
  | Completed stats -> Ok stats
  | Deadlocked { cycle; blocked; wait_cycle; timed_out; telemetry; faults } ->
      let code = if timed_out then Diag.Code.sim_timeout else Diag.Code.sim_deadlock in
      let what = if timed_out then "timed out" else "deadlocked" in
      let d = Diag.errorf ~code "simulation %s at cycle %d" what cycle in
      let d =
        match wait_cycle with
        | [] -> d
        | ws -> Diag.add_note ("circular wait: " ^ String.concat " -> " ws) d
      in
      let d =
        List.fold_left (fun d (n, r) -> Diag.add_note (Printf.sprintf "%s: %s" n r) d) d blocked
      in
      let d =
        match (timed_out, config.Config.safety.Config.max_cycles) with
        | true, Some b ->
            Diag.add_note
              (Printf.sprintf "cycle budget: %d (Config.safety.max_cycles / --max-cycles)" b)
              d
        | _ -> d
      in
      let d =
        List.fold_left
          (fun d n -> Diag.add_note n d)
          d
          (Fault_plan.attribution_notes faults ~stall_cycle:cycle)
      in
      Error
        (List.fold_left (fun d n -> Diag.add_note n d) d (Telemetry.attribution_notes telemetry))

let run ?(config = Config.default) ?placement ?inputs p =
  to_result ~config (run_exn ~config ?placement ?inputs p)

(* The program is checked and every body lowered once, into the plan
   that the stencil units and the oracle share. The oracle reads only
   the plan and the inputs: it evaluates on a second domain while this
   one simulates, or inline after the run in a pool worker (its pool
   already uses the cores) or on a one-core host. It is prepared here,
   before the spawn: preparing on the second domain measured slower, as
   its allocation then runs alongside the build's. A malformed program
   raises before either runs; otherwise the run's exception or [Error]
   wins over any oracle exception. *)
let run_and_validate ?(config = Config.default) ?(placement = fun _ -> 0) ?inputs p =
  let inputs = match inputs with Some i -> i | None -> Interp.random_inputs p in
  let plan = Interp.plan p in
  let oracle = try Interp.prepare plan ~inputs with e -> fun () -> raise e in
  let reference, discard =
    if Sf_support.Executor.worker_index () > 0 || Domain.recommended_domain_count () < 2 then
      (oracle, ignore)
    else
      let d = Domain.spawn oracle in
      ((fun () -> Domain.join d), fun () -> try ignore (Domain.join d) with _ -> ())
  in
  match to_result ~config (run_plan ~config ~placement ~inputs plan) with
  | Ok stats -> compare_outputs ~reference:(reference ()) stats
  | Error _ as e ->
      discard ();
      e
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      discard ();
      Printexc.raise_with_backtrace e bt
