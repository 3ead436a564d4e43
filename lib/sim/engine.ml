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

(* Immutable: pool workers and the oracle's spare domain share one. *)
type prepared = { analysis : Sf_analysis.Delay_buffer.t; plan : Interp.plan }

let prepare analysis = { analysis; plan = Interp.plan (Sf_analysis.Delay_buffer.checked analysis) }

let prepare_program ?(config = Config.default) p =
  prepare
    (Sf_analysis.Delay_buffer.of_checked ~config:config.Config.latency (Program.check_exn p))

(* The system model, its constructor, the scheduler and the counter
   harvest live in [Internal] so the benchmark and the test oracle can
   drive the same components; see engine.mli for the contract. The
   engine below opens it. *)
module Internal = struct
type comp =
  | Clink of Link.t
  | Cwriter of Memory_unit.Writer.t
  | Cunit of Stencil_unit.t
  | Creader of Memory_unit.Reader.t

(* One simulated system and its wiring, recorded once by [build]: every
   channel by its index in creation order; every component by its index
   in the seed's per-cycle order (links, writers, units consumers before
   producers, readers), with its telemetry probe (absent when telemetry
   is off) and its input and output channels; and each channel's
   producer and consumer component. Names are display text only. *)
type system = {
  channels : Channel.t array;
  comps : comp array;
  probes : Telemetry.probe option array;
  ins : int array array;
  outs : int array array;
  producer : int array;
  consumer : int array;
  outputs : (string * Memory_unit.Writer.t) list;
  mem_controllers : Controller.t array;
  prefetch_bytes : int;
  writers_done : int ref;
      (* Completed-writer counter, bumped by each writer's on_done hook
         so the hot loop's termination test is one integer compare. *)
}

(* The prepared analysis sizes the channels; [config.latency] is unread. *)
let instantiate ~config ~telemetry ~placement ~inputs { analysis; plan } =
  let checked = plan.Interp.checked in
  let p = Program.Checked.program checked in
  let { Config.channel_slack; override_edge_buffers; bandwidth; network; _ } = config in
  let { Config.mem_bytes_per_cycle } = bandwidth in
  let { Config.net_bytes_per_cycle; net_latency_cycles } = network in
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
  (* Each channel is created with its index, and each component with its
     probe and the indices of its inputs and outputs. *)
  let channels = ref [] and nchannels = ref 0 in
  let new_channel ?validity ?history ?pending name capacity =
    let c = Channel.create_vec ?validity ?history ?pending ~width:w ~name ~capacity () in
    channels := c :: !channels;
    incr nchannels;
    (!nchannels - 1, c)
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
  (* Each link with its probe and its ports' near and far channels,
     newest first. *)
  let links : (int * int, Link.t * Telemetry.probe option * (int * int) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let link_between d1 d2 =
    let key = (min d1 d2, max d1 d2) in
    match Hashtbl.find_opt links key with
    | Some (l, _, ports) -> (l, ports)
    | None ->
        let name = Printf.sprintf "link%d-%d" (fst key) (snd key) in
        let probe = Telemetry.probe telemetry ~kind:Telemetry.Link ~name in
        let l =
          Link.create ?probe ~name ~bytes_per_cycle:net_bytes_per_cycle
            ~latency_cycles:net_latency_cycles ()
        in
        let ports = ref [] in
        Hashtbl.replace links key (l, probe, ports);
        (l, ports)
  in
  (* Every lookup by name reads the check's facts. Only stencils have a
     home device: inputs live wherever their consumers do. *)
  let consumers = Program.Checked.consumers checked and device_of = placement in
  (* Input channel of each consumer edge, keyed by (src, dst). Cross-device
     edges get a source-side channel, a link port, and the destination-side
     channel with the analysed delay buffer. *)
  let dst_channel : (string * string, int * Channel.t) Hashtbl.t = Hashtbl.create 32 in
  let src_endpoint : (string * string, int * Channel.t) Hashtbl.t = Hashtbl.create 32 in
  (* A ring reserves the producing unit's pending words and the
     consuming unit's register history (Stencil_unit.create checks). *)
  let history ~src ~dst =
    Stencil_unit.history_words ~info:(Sf_analysis.Delay_buffer.node_info analysis dst) ~width:w src
  in
  (* Only a unit's lead output reserves pending words; its outputs are
     its consumer edges in consumer order, then its writer. *)
  let pending ~src output =
    let outputs =
      List.map (fun c -> `Edge c) (consumers src)
      @ if List.exists (String.equal src) p.Program.outputs then [ `Writer ] else []
    in
    let flags = Array.of_list (List.map (( = ) `Writer) outputs) in
    match Program.Checked.find checked src with
    | Program.Op s when List.nth outputs (Stencil_unit.lead s ~flags) = output ->
        Stencil_unit.pending_words ~info:(Sf_analysis.Delay_buffer.node_info analysis src) ~width:w
    | Program.Op _ | Program.Input _ -> 0
  in
  let make_edge ~src ~dst ~src_device ~dst_device =
    let cap = buffer_for ~src ~dst + channel_slack in
    let history = history ~src ~dst and pending = pending ~src (`Edge dst) in
    if src_device = dst_device then begin
      let c = new_channel ~history ~pending (Printf.sprintf "%s->%s" src dst) cap in
      Hashtbl.replace dst_channel (src, dst) c;
      Hashtbl.replace src_endpoint (src, dst) c
    end
    else begin
      let near = new_channel ~pending (Printf.sprintf "%s->%s.tx" src dst) channel_slack in
      let far = new_channel ~history (Printf.sprintf "%s->%s.rx" src dst) cap in
      let link, ports = link_between src_device dst_device in
      Link.add_port link ~src:(snd near) ~dst:(snd far) ~word_bytes;
      ports := (fst near, fst far) :: !ports;
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
                    let ch =
                      new_channel ~history:(history ~src:f.Field.name ~dst:c)
                        (Printf.sprintf "%s->%s" f.Field.name c) cap
                    in
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
                ~outputs:(List.map snd consumer_channels) ()
            in
            readers := (Creader r, probe, [], List.map fst consumer_channels) :: !readers)
          devices
      else
        List.iter
          (fun _ -> prefetch_bytes := !prefetch_bytes + Field.size_bytes f ~shape:p.Program.shape)
          devices)
    p.Program.inputs;
  (* Writers for declared outputs. *)
  let writers_done = ref 0 in
  let writers =
    List.map
      (fun o ->
        (* 8 words of buffering in front of each memory writer. *)
        let cap = channel_slack + 8 in
        (* Writers alone read validity flags. *)
        let c =
          new_channel ~validity:true ~pending:(pending ~src:o `Writer) (Printf.sprintf "%s->mem" o)
            cap
        in
        let d = device_of o in
        let name = Printf.sprintf "write.%s@%d" o d in
        let probe = Telemetry.probe telemetry ~kind:Telemetry.Writer ~name in
        let writer =
          Memory_unit.Writer.create ?probe
            ~on_done:(fun () -> incr writers_done)
            ~name ~shape:p.Program.shape ~vector_width:w ~element_bytes
            ~controller:mem_controllers.(d) ~input:(snd c) ()
        in
        (o, writer, probe, c))
      p.Program.outputs
  in
  (* Stencil units, in topological order. *)
  let frames = Stencil_unit.frames () in
  let units =
    List.map
      (fun (s, lowered) ->
        let name = s.Stencil.name in
        let streams = ref [] in
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
                  let c = Hashtbl.find dst_channel (field, name) in
                  streams := fst c :: !streams;
                  {
                    Stencil_unit.field;
                    axes = Program.Checked.axes checked field;
                    channel = Some (snd c);
                    prefetched = None;
                  })
            (Program.Checked.reads checked name)
        in
        let outputs =
          List.filter_map (fun c -> Hashtbl.find_opt src_endpoint (name, c)) (consumers name)
          @ List.filter_map
              (fun (o, _, _, c) -> if String.equal o name then Some c else None)
              writers
        in
        let info = Sf_analysis.Delay_buffer.node_info analysis name in
        let probe = Telemetry.probe telemetry ~kind:Telemetry.Unit ~name in
        ( Cunit
            (Stencil_unit.create ?probe ~frames ~program:p ~stencil:s ~lowered ~info ~inputs:bindings
               ~outputs:(List.map snd outputs) ()),
          probe,
          List.rev !streams,
          List.map fst outputs ))
      plan.Interp.stages
  in
  (* The seed's per-cycle order: links, writers, units consumers before
     producers (reverse topological order — data pushed this cycle
     becomes visible next cycle, space freed this cycle is reusable
     immediately, matching credit-based hardware), readers. *)
  let wired =
    Array.of_list
      (Hashtbl.fold
         (fun _ (l, probe, ports) acc ->
           let ports = List.rev !ports in
           (Clink l, probe, List.map fst ports, List.map snd ports) :: acc)
         links []
      @ List.map (fun (_, w, probe, (c, _)) -> (Cwriter w, probe, [ c ], [])) writers
      @ List.rev units @ List.rev !readers)
  in
  let nchannels = !nchannels in
  let producer = Array.make nchannels (-1) and consumer = Array.make nchannels (-1) in
  Array.iteri
    (fun i (_, _, ins, outs) ->
      List.iter (fun c -> consumer.(c) <- i) ins;
      List.iter (fun c -> producer.(c) <- i) outs)
    wired;
  let predicted = Sf_analysis.Runtime_model.analyzed_cycles p analysis in
  ( {
      channels = Array.of_list (List.rev !channels);
      comps = Array.map (fun (c, _, _, _) -> c) wired;
      probes = Array.map (fun (_, probe, _, _) -> probe) wired;
      ins = Array.map (fun (_, _, ins, _) -> Array.of_list ins) wired;
      outs = Array.map (fun (_, _, _, outs) -> Array.of_list outs) wired;
      producer;
      consumer;
      outputs = List.map (fun (o, w, _, _) -> (o, w)) writers;
      mem_controllers;
      prefetch_bytes = !prefetch_bytes;
      writers_done;
    },
    predicted )

let build ~config ~telemetry ~placement ~inputs p =
  instantiate ~config ~telemetry ~placement ~inputs (prepare_program ~config p)

let comp_name = function
  | Clink l -> Link.name l
  | Cwriter w -> Memory_unit.Writer.name w
  | Cunit u -> Stencil_unit.name u
  | Creader r -> Memory_unit.Reader.name r

let comp_kind = function
  | Clink _ -> Telemetry.Link
  | Cwriter _ -> Telemetry.Writer
  | Cunit _ -> Telemetry.Unit
  | Creader _ -> Telemetry.Reader

(* Write backpressure shows as a DRAM hiccup would: bandwidth denied. *)
let frozen_cycle system i ~now =
  let stall cause = Option.iter (fun p -> Telemetry.stall p ~now cause) system.probes.(i) in
  match system.comps.(i) with
  | Clink l -> Link.frozen_cycle l ~now
  | Cunit u when not (Stencil_unit.is_done u) ->
      Stencil_unit.add_stalls u 1;
      stall Telemetry.Pipeline_drain
  | Cwriter w when not (Memory_unit.Writer.is_done w) -> stall Telemetry.Bandwidth_denied
  | Cunit _ | Cwriter _ | Creader _ -> ()

(* Component indices in report order: units in topological order (the
   reverse of the per-cycle order), then readers, writers and links. *)
let report_order system =
  let all = List.init (Array.length system.comps) Fun.id in
  let of_kind k = List.filter (fun i -> comp_kind system.comps.(i) = k) all in
  List.rev (of_kind Telemetry.Unit)
  @ of_kind Telemetry.Reader @ of_kind Telemetry.Writer @ of_kind Telemetry.Link

(* Freeze the counter registry: per-component push/pop/byte counts are
   harvested once here from the always-on channel and controller
   counters, so the hot loop pays nothing for them; cause breakdowns
   come from the probes when telemetry was enabled. *)
let harvest ~telemetry ~system ~cycles ~samples =
  let total count chans = Array.fold_left (fun a c -> a + count system.channels.(c)) 0 chans in
  let row i =
    let c = system.comps.(i) in
    let stalled, bytes =
      match c with
      | Cunit u -> (Some (Stencil_unit.stall_cycles u), 0)
      | Creader r -> (None, Memory_unit.Reader.words_streamed r * Memory_unit.Reader.word_bytes r)
      | Cwriter w -> (None, Memory_unit.Writer.bytes_committed w)
      | Clink l -> (None, Link.bytes_transferred l)
    in
    Telemetry.counters_row ?probe:system.probes.(i) ?stalled
      ~pushes:(total Channel.total_pushed system.outs.(i))
      ~pops:(total Channel.total_popped system.ins.(i))
      ~bytes ~name:(comp_name c) ~kind:(comp_kind c) ()
  in
  let channels =
    Array.fold_right
      (fun c acc ->
        {
          Telemetry.channel = Channel.name c;
          capacity = Channel.capacity c;
          high_water = Channel.high_water c;
          total_pushed = Channel.total_pushed c;
          total_popped = Channel.total_popped c;
        }
        :: acc)
      system.channels []
  in
  Telemetry.freeze telemetry ~cycles
    ~components:(List.map row (report_order system))
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
    List.fold_left (fun acc (_, w) -> acc + Memory_unit.Writer.bytes_committed w) 0 system.outputs
  in
  {
    cycles;
    predicted_cycles = predicted;
    results = List.map (fun (o, w) -> (o, Memory_unit.Writer.result w)) system.outputs;
    bytes_read = bytes_granted - bytes_written;
    bytes_written;
    network_bytes =
      Array.fold_left
        (fun acc -> function Clink l -> acc + Link.bytes_transferred l | _ -> acc)
        0 system.comps;
    telemetry = report;
    faults;
  }

(* Compare a completed run's outputs against the reference
   interpreter's ([run_and_validate]), one pass over each output's
   values and flags. A mask difference is reported first; then a NaN
   where the other holds a number (both evaluators are bit-identical,
   so NaN against NaN agrees); then the largest deviation of a valid
   cell. *)
let compare_outputs ~reference stats =
  let mismatch fmt =
    Format.kasprintf (fun m -> Error (Diag.error ~code:Diag.Code.sim_mismatch m)) fmt
  in
  let rec check = function
    | [] -> Ok stats
    | (name, (simulated : Interp.result)) :: rest -> (
        match List.assoc_opt name reference with
        | None -> mismatch "output %s missing from reference" name
        | Some (expected : Interp.result) ->
            let got = simulated.Interp.tensor.Tensor.data
            and want = expected.Interp.tensor.Tensor.data
            and got_valid = simulated.Interp.valid
            and valid = expected.Interp.valid in
            let n = Array.length valid in
            let masks = ref (Array.length got_valid = n) and nan = ref (-1) and worst = ref 0. in
            if !masks then
              for i = 0 to n - 1 do
                let v = Array.unsafe_get valid i in
                if v <> Array.unsafe_get got_valid i then masks := false
                else if v then begin
                  let a = got.(i) and b = want.(i) in
                  let d = Float.abs (a -. b) in
                  if d > !worst then worst := d
                  else if !nan < 0 && Float.is_nan a <> Float.is_nan b then nan := i
                end
              done;
            if not !masks then mismatch "output %s: validity masks differ" name
            else if !nan >= 0 then
              mismatch "output %s: cell %d is %g where the reference holds %g" name !nan
                got.(!nan) want.(!nan)
            else if !worst > 1e-9 then
              mismatch "output %s: max deviation %g from reference" name !worst
            else check rest)
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
(* popped; a unit starved on an input wakes only on a push into that   *)
(* one), its wake timer fires (link word matured, pending word         *)
(* released, freeze ended) or a fault transition targets it. A         *)
(* component frozen by a fault does not run: it records one frozen     *)
(* cycle (Internal.frozen_cycle) and sleeps until its freeze ends. Its *)
(* slept cycles are credited lazily as repeats of the cycle it fell    *)
(* asleep on. When everything sleeps, a quiescence jump skips to the   *)
(* next timer, never past the limit of the current advance.            *)
(*                                                                     *)
(* Fast-forward: a window plans each awake component's own schedule    *)
(* as a few segments of one repeated action (Stencil_unit.plan         *)
(* follows a unit through register fill, compute without flush,        *)
(* steady state, input end, drain and done; readers and writers move   *)
(* one word per cycle until done; link ports deliver, inject or idle   *)
(* per Link.plan). A unit or writer asleep joins the cycle its first   *)
(* input push wakes it, so producers are planned before consumers.     *)
(* Push and pop rates then change only at segment ends, so each        *)
(* channel's occupancy is linear between them and is checked there;    *)
(* the window ends before the first pop of an empty channel or push    *)
(* into a full one, and at what it cannot plan: the wake of a sleeper  *)
(* that does not join, a link's maturity or budget, and the end of     *)
(* the run. The window then runs in chunks of up to Channel.chunk      *)
(* cycles, producers before consumers (readers, units in topological   *)
(* order, writers; a link port, after its source's producer, injects   *)
(* and then delivers what Link.plan proved mature), each component     *)
(* doing its part of the chunk at once, split only at its own segment  *)
(* ends: a unit evaluates a row segment of words per dispatch. Values  *)
(* are exact (a unit's outputs depend only on the order of the words   *)
(* it pops), channels hold the chunk in slots past their capacity, and *)
(* each pushed channel's high-water mark is settled at the end from    *)
(* the same breakpoints.                                               *)
(*                                                                     *)
(* Every run takes this one schedule. Windows and jumps stop short of  *)
(* occupancy samples and fault transitions, where the injector ticks.  *)
(* A frozen unit or writer never joins a window and the traffic on its *)
(* channels does not bound one; a frozen link is a sleeper like any    *)
(* other. While a memory controller is denied no window runs.          *)
(* ------------------------------------------------------------------ *)

(* Piecewise rates of a fast-forward window: the sorted, disjoint
   intervals [a, b) of its relative cycles in which one word moves per
   cycle (none outside them). *)
module Rate = struct
  type t = { mutable n : int; mutable a : int array; mutable b : int array }

  let create () = { n = 0; a = Array.make 4 0; b = Array.make 4 0 }
  let clear r = r.n <- 0
  let first r = if r.n = 0 then max_int else r.a.(0)

  (* Intervals arrive in order; one that starts where the last ends
     extends it. *)
  let add r a b =
    if a < b then
      if r.n > 0 && r.b.(r.n - 1) = a then r.b.(r.n - 1) <- b
      else begin
        if r.n = Array.length r.a then begin
          r.a <- Array.append r.a r.a;
          r.b <- Array.append r.b r.b
        end;
        r.a.(r.n) <- a;
        r.b.(r.n) <- b;
        r.n <- r.n + 1
      end

  (* A channel's occupancy over cycles [0, k), from [occupancy] words,
     with the push rates [ps] and pop rates [qs]: the pop precedes the
     push in a cycle, or follows it when [first]. Occupancy is linear
     between the rates' breakpoints, so each stretch is checked at its
     ends. Returns the first cycle whose pop finds no word or whose push
     finds no room ([k] when none does), and the largest occupancy a
     push leaves before then. *)
  let walk ~first ~occupancy ~capacity ~k ps qs =
    let t = ref 0 and o = ref occupancy and ip = ref 0 and iq = ref 0 in
    let bad = ref k and peak = ref 0 in
    (* The rate of [r] at [!t] (skipping intervals behind it) and where
       it next changes. *)
    let at r i =
      while !i < r.n && r.b.(!i) <= !t do
        incr i
      done;
      if !i = r.n then (0, max_int)
      else if r.a.(!i) <= !t then (1, r.b.(!i))
      else (0, r.a.(!i))
    in
    while !t < !bad do
      let p, pn = at ps ip and q, qn = at qs iq in
      let next = Int.min !bad (Int.min pn qn) in
      let fails =
        match (p, q) with
        | 0, 1 -> !t + !o
        | 1, 0 -> !t + Int.max 0 (capacity - !o)
        | 1, 1 when (first && !o >= capacity) || ((not first) && !o < 1) -> !t
        | _ -> max_int
      in
      if fails < next then bad := fails
      else begin
        o := !o + ((next - !t) * (p - q));
        if p = 1 then peak := Int.max !peak (if first then !o + q else !o);
        t := next
      end
    done;
    (!bad, !peak)
end

type sched = {
  advance : limit:int -> unit;
  now : unit -> int;
  windowed : unit -> int;
  windows : unit -> int;
  unit_chunks : unit -> int;
  deadlocked : unit -> bool;
  samples : unit -> (int * (string * int) list) list;
}

let scheduler ~config ?injector ~finished system =
  let { Config.deadlock_window; _ } = config.Config.safety in
  let { Config.trace_interval; _ } = config.Config.tracing in
  let { comps; probes; ins; outs; producer; consumer; channels = all_channels; _ } = system in
  let controllers = system.mem_controllers in
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
  (* Wake hooks, from the wiring: a push wakes the channel's consumer, a
     pop wakes its producer. [waits.(i)]: the channel a sleeping unit
     starved on first, whose push alone can change what its next cycle
     does or records; pushes into its other inputs leave it asleep.
     [-1]: any push wakes it. *)
  let waits = Array.make ncomps (-1) in
  Array.iteri
    (fun ci c ->
      let i = consumer.(ci) and p = producer.(ci) in
      Channel.set_hooks c
        ~on_push:(fun () -> if waits.(i) < 0 || waits.(i) = ci then ready.(i) <- true)
        ~on_pop:(fun () -> ready.(p) <- true))
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
  (* Fast-forward windows need every memory grant to be plannable: no
     memory budget and no denial. Links plan their own budgets
     ([Link.fit]); a delivery pushes before its consumer pops, which
     the channel checks and high-water marks below allow for. *)
  let batchable () = Array.for_all Controller.is_unlimited controllers in
  (* The first cycle from [from] on that must be stepped, because it
     samples occupancies or a fault stream changes state there. Windows
     and jumps stop short of it. *)
  let must_step ~from =
    let h = match injector with Some inj -> Fault_plan.horizon inj | None -> max_int in
    match trace_interval with Some iv -> Int.min h ((from + iv - 1) / iv * iv) | None -> h
  in
  (* A fault transition wakes the component it targets. *)
  let wake i = ready.(i) <- true in
  let frozen_until =
    match injector with Some inj -> Fault_plan.frozen_until inj | None -> fun _ -> 0
  in
  let nchan = Array.length all_channels in
  (* A window's schedule, per channel: the cycles its producer pushes
     and its consumer pops, each a sorted list of intervals of one word
     per cycle. [first.(c)]: the producer runs before the consumer in a
     cycle (a link delivering), so it pushes before the pop and wakes a
     sleeping consumer the same cycle; otherwise the pop comes first. *)
  let pushes = Array.init nchan (fun _ -> Rate.create ())
  and pops = Array.init nchan (fun _ -> Rate.create ()) in
  let first = Array.init nchan (fun c -> producer.(c) < consumer.(c)) in
  let walk c k =
    let ch = all_channels.(c) in
    Rate.walk ~first:first.(c) ~occupancy:(Channel.occupancy ch) ~capacity:(Channel.capacity ch)
      ~k pushes.(c) pops.(c)
  in
  (* The cycle the window's first push into channel [c] wakes its
     sleeping consumer; the cycle component [i] asleep is first woken by
     a push into an input, or by a pop from an output. *)
  let push_wake c =
    let t = Rate.first pushes.(c) in
    if t = max_int || first.(c) then t else t + 1
  in
  let push_woken i =
    if waits.(i) >= 0 then push_wake waits.(i)
    else Array.fold_left (fun w c -> Int.min w (push_wake c)) max_int ins.(i)
  in
  let pop_woken i =
    Array.fold_left
      (fun w c ->
        let t = Rate.first pops.(c) in
        Int.min w (if t = max_int || not first.(c) then t else t + 1))
      max_int outs.(i)
  in
  (* Each component's place in the window: the cycle it joins ([0] when
     awake, [max_int] when out of it) and the cycle it stops making
     progress (done), both relative to the window's start. *)
  let start = Array.make ncomps max_int and finish = Array.make ncomps max_int in
  let nlinks = Array.fold_left (fun n -> function Clink _ -> n + 1 | _ -> n) 0 comps in
  let is_done = function
    | Clink _ -> false
    | Cwriter w -> Memory_unit.Writer.is_done w
    | Cunit u -> Stencil_unit.is_done u
    | Creader r -> Memory_unit.Reader.is_done r
  in
  (* Each link port's place in a chunk: after the producer of its source. *)
  let ports_after = Array.make ncomps [] in
  Array.iteri
    (fun li -> function
      | Clink l ->
          let add x c = ports_after.(producer.(c)) <- (li, l, x) :: ports_after.(producer.(c)) in
          Array.iteri add ins.(li)
      | Cwriter _ | Cunit _ | Creader _ -> ())
    comps;
  let windowed = ref 0 and windows = ref 0 and unit_chunks = ref 0 in
  (* Every channel is W lanes wide, so one chunk fits each channel's
     slack, history and pending reserve. *)
  let chunk =
    Array.fold_left
      (fun m c -> Int.min m (Channel.chunk ~width:(Channel.width c)))
      max_int all_channels
  in
  (* Try to advance the whole system k >= 2 cycles at once, short of
     [limit]. Each awake non-done component plans its own schedule from
     now (Stencil_unit.plan, Link.plan; readers and writers move one
     word per cycle until done); a unit or writer asleep joins at the
     cycle its first input push wakes it and plans from there, so
     producers are planned first: links, then readers, units in
     topological order and writers. Every other sleeper, and a link port
     whose empty source is pushed, bounds k at its wake. Each channel's
     occupancy is walked over its push and pop rates, which change only
     at segment ends, and k ends before the first pop of an empty
     channel or push into a full one. A channel is walked once its
     consumer is planned, after its producer, so a window that cannot
     start stops planning there; a link's sources are walked last. *)
  let attempt_batch ~limit =
    let now = !cycle in
    let k = ref (Int.min limit (must_step ~from:now) - now) in
    let bound b = if b < !k then k := b in
    let walk_rates c =
      if !k >= 2 && (pushes.(c).Rate.n > 0 || pops.(c).Rate.n > 0) then bound (fst (walk c !k))
    in
    let kmax = !k in
    let plan i =
      start.(i) <- max_int;
      finish.(i) <- max_int;
      let c = comps.(i) in
      let asleep = (not ready.(i)) && wake_at.(i) > now in
      let frozen = frozen_until i > now in
      let j =
        if is_done c then max_int
        else
          match c with
          | (Cunit _ | Cwriter _) when frozen -> max_int
          | _ when not asleep -> 0
          | Cunit _ | Cwriter _ ->
              let w = push_woken i in
              if w < wake_at.(i) - now then w else max_int
          | Clink _ | Creader _ -> max_int
      in
      if j < !k then begin
        let ins = ins.(i) and outs = outs.(i) in
        let h =
          match c with
          | Clink l -> if frozen then 0 else Link.plan l ~now
          | Cwriter w -> Memory_unit.Writer.words_remaining w
          | Cunit u -> Stencil_unit.plan u ~now:(now + j) ~until:(now + kmax)
          | Creader r -> Memory_unit.Reader.words_remaining r
        in
        if h = 0 then bound j
        else begin
          start.(i) <- j;
          match c with
          | Clink l ->
              bound h;
              for x = 0 to Array.length ins - 1 do
                if Link.plan_injects l x then Rate.add pops.(ins.(x)) 0 kmax
              done;
              for x = 0 to Array.length outs - 1 do
                if Link.plan_delivers l x then Rate.add pushes.(outs.(x)) 0 kmax
              done
          | Cwriter _ ->
              finish.(i) <- j + h;
              Rate.add pops.(ins.(0)) j (j + h)
          | Creader _ ->
              finish.(i) <- h;
              Array.iter (fun c -> Rate.add pushes.(c) 0 h) outs
          | Cunit u ->
              let a = ref j in
              for s = 0 to Stencil_unit.plan_segments u - 1 do
                let b = j + Stencil_unit.plan_segment_end u s in
                if Stencil_unit.plan_flushes u s then
                  Array.iter (fun c -> Rate.add pushes.(c) !a b) outs;
                for x = 0 to Array.length ins - 1 do
                  if Stencil_unit.plan_pops u s x then Rate.add pops.(ins.(x)) !a b
                done;
                a := b
              done;
              if h = max_int then finish.(i) <- !a else bound (j + h)
        end
      end
    in
    if !k >= 2 then begin
      Array.iter Rate.clear pushes;
      Array.iter Rate.clear pops;
      for i = 0 to nlinks - 1 do
        plan i
      done;
      let i = ref (ncomps - 1) in
      while !k >= 2 && !i >= nlinks do
        plan !i;
        Array.iter walk_rates ins.(!i);
        decr i
      done
    end;
    if !k >= 2 then begin
      (* Sleepers that stay out wake at their timer or at the first push
         into an input or pop from an output; one that joined must not
         be woken by a pop before it joins. A frozen unit or writer
         records the same cycle whatever its channels do, so only the
         end of its freeze bounds the window. A link port that does not
         inject would start the cycle after its source is pushed. *)
      let writers_left = ref false and writers_end = ref 0 and progress_end = ref 0 in
      for i = 0 to ncomps - 1 do
        let is_done = is_done comps.(i) in
        if start.(i) = max_int then begin
          if not is_done then begin
            if wake_at.(i) < max_int then bound (wake_at.(i) - now);
            match comps.(i) with
            | (Cunit _ | Cwriter _) when frozen_until i > now -> ()
            | Cunit _ | Cwriter _ | Clink _ | Creader _ ->
                bound (push_woken i);
                bound (pop_woken i)
          end
        end
        else begin
          if start.(i) > 0 then (let w = pop_woken i in if w < start.(i) then bound w);
          (match comps.(i) with
          | Clink l ->
              Array.iteri (fun x c -> if not (Link.plan_injects l x) then bound (push_wake c)) ins.(i)
          | Cwriter _ | Cunit _ | Creader _ -> ());
          progress_end := Int.max !progress_end finish.(i)
        end;
        match comps.(i) with
        | Cwriter _ when not is_done ->
            if start.(i) = max_int then writers_left := true
            else writers_end := Int.max !writers_end finish.(i)
        | Cwriter _ | Clink _ | Cunit _ | Creader _ -> ()
      done;
      (* The run ends when the last writer is done, and every cycle of a
         window must see some component progress. *)
      if not !writers_left then bound !writers_end;
      bound !progress_end;
      for i = 0 to nlinks - 1 do
        Array.iter walk_rates ins.(i)
      done
    end;
    (* Links check maturity and budgets last, against the final bound. *)
    if !k >= 2 then
      for i = 0 to nlinks - 1 do
        if start.(i) = 0 then
          match comps.(i) with
          | Clink l -> k := Link.fit l ~now !k
          | Cwriter _ | Cunit _ | Creader _ -> ()
      done;
    let kk = !k in
    if kk >= 2 && Array.exists (fun j -> j < kk) start then begin
      (* Chunk pushes leave high-water marks alone: settle them now. *)
      for c = 0 to nchan - 1 do
        if Rate.first pushes.(c) < kk then
          Channel.Unsafe.settle_high_water all_channels.(c) ~peak:(snd (walk c kk))
      done;
      for i = 0 to ncomps - 1 do
        let j = start.(i) in
        if j < kk then begin
          credit i ~now:(now + j);
          Option.iter
            (fun p -> Telemetry.busy p ~now:(now + j) ~cycles:(Int.min kk finish.(i) - j))
            probes.(i);
          last_ran.(i) <- now + kk - 1
        end
      done;
      (* Producers before consumers: readers, units in topological
         order, writers, each link port right after the producer of its
         source; a link grants its budget last. A reader or writer moves
         its words up to the cycle it is done; a unit runs its own
         segments. *)
      let rel = ref 0 in
      while !rel < kk do
        let n = Int.min chunk (kk - !rel) in
        for i = ncomps - 1 downto 0 do
          let j = start.(i) in
          if j < !rel + n && finish.(i) > !rel then begin
            let m = !rel + n - Int.max !rel j in
            match comps.(i) with
            | Clink l -> Link.grant l ~now:(now + !rel) n
            | Cwriter w ->
                let m = Int.min m (Memory_unit.Writer.words_remaining w) in
                if m > 0 then Memory_unit.Writer.run_fast w m
            | Cunit u ->
                incr unit_chunks;
                Stencil_unit.run_planned u ~now:(now + !rel) n
            | Creader r ->
                let m = Int.min m (Memory_unit.Reader.words_remaining r) in
                if m > 0 then Memory_unit.Reader.run_fast r m
          end;
          List.iter
            (fun (li, l, x) -> if start.(li) = 0 then Link.run_port l x ~now:(now + !rel) n)
            ports_after.(i)
        done;
        rel := !rel + n
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
    (match injector with
    | Some inj when now >= Fault_plan.horizon inj -> Fault_plan.tick inj ~now ~wake
    | Some _ | None -> ());
    let progress = ref false in
    (* Every kind sleeps only after a cycle without progress, so the
       record it is credited with while asleep is that cycle's. *)
    for i = 0 to ncomps - 1 do
      if ready.(i) || wake_at.(i) <= now then begin
        if wake_at.(i) <= now then wake_at.(i) <- max_int;
        ready.(i) <- true;
        credit i ~now;
        let thaw = frozen_until i in
        (match comps.(i) with
        | _ when thaw > now ->
            frozen_cycle system i ~now;
            ready.(i) <- false;
            wake_at.(i) <- thaw
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
              Memory_unit.Writer.is_done w || Channel.is_empty all_channels.(ins.(i).(0))
            then ready.(i) <- false
        | Cunit u ->
            if Stencil_unit.cycle u ~now then progress := true
            else begin
              ready.(i) <- false;
              let k = Stencil_unit.starved_input u in
              waits.(i) <- (if k < 0 then -1 else ins.(i).(k));
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
  let advance ~limit =
    while (not (finished ())) && (not !deadlocked) && !cycle < limit do
      if not (batchable () && attempt_batch ~limit) then step ~limit
    done;
    (* Settle the lazy credit of components asleep at the exit. *)
    Array.iteri (fun i _ -> credit i ~now:!cycle) comps
  in
  {
    advance;
    now = (fun () -> !cycle);
    windowed = (fun () -> !windowed);
    windows = (fun () -> !windows);
    unit_chunks = (fun () -> !unit_chunks);
    deadlocked = (fun () -> !deadlocked);
    samples = (fun () -> List.rev !trace);
  }

(* One run: build the system and its fault injector, let [drive] step
   it, then assemble the outcome, diagnosing a run that did not finish.
   [drive] returns the cycles executed, whether the idle window
   tripped, and the occupancy samples. *)
let simulate ~config ~placement ~inputs ~drive prepared =
  let telemetry = Telemetry.create ~enabled:config.Config.tracing.Config.telemetry () in
  let system, predicted = instantiate ~config ~telemetry ~placement ~inputs prepared in
  let { comps; ins; outs; producer; consumer; _ } = system in
  let order = report_order system in
  (* Fault injection binds the plan's streams to the built components. *)
  let injector =
    match config.Config.faults.Config.plan with
    | None -> None
    | Some plan ->
        let pick f = List.filter_map (fun i -> f i comps.(i)) order in
        Some
          (Fault_plan.create ~seed:config.Config.faults.Config.fault_seed ~plan
             ~links:(pick (fun i -> function Clink l -> Some (l, i) | _ -> None))
             ~controllers:
               (Array.to_list
                  (Array.mapi
                     (fun d c -> (Printf.sprintf "mem@%d" d, c))
                     system.mem_controllers))
             ~units:(pick (fun i c -> match c with Cunit _ -> Some (comp_name c, i) | _ -> None))
             ~writers:(pick (fun i c -> match c with Cwriter _ -> Some (comp_name c, i) | _ -> None)))
  in
  let n_writers = List.length system.outputs in
  let finished () = !(system.writers_done) >= n_writers in
  let cycle, deadlocked, samples = drive system injector finished in
  let report () = harvest ~telemetry ~system ~cycles:cycle ~samples in
  let faults =
    Option.fold injector ~none:Fault_plan.empty_summary ~some:(Fault_plan.summary ~cycles:cycle)
  in
  if deadlocked || not (finished ()) then begin
    (* Wait-for graph: who is each blocked component waiting on?
       A cycle through it is the circular dependency of Fig. 4. A link
       only passes words on: a wait on it is a wait on the component at
       the other end of the port. *)
    let across c ~from ~onto =
      let rec go x = if from.(x) = c then onto.(x) else go (x + 1) in
      go 0
    in
    let producer_of c =
      let p = producer.(c) in
      match comps.(p) with
      | Clink _ -> producer.(across c ~from:outs.(p) ~onto:ins.(p))
      | Cwriter _ | Cunit _ | Creader _ -> p
    in
    let consumer_of c =
      let q = consumer.(c) in
      match comps.(q) with
      | Clink _ -> consumer.(across c ~from:ins.(q) ~onto:outs.(q))
      | Cwriter _ | Cunit _ | Creader _ -> q
    in
    let module G = Sf_support.Dgraph.Make (Int) in
    let g = ref G.empty in
    let ensure v = if not (G.mem_vertex !g v) then g := G.add_vertex !g v () in
    let wait_edge waiter waited =
      ensure waiter;
      ensure waited;
      g := G.add_edge !g ~src:waiter ~dst:waited ()
    in
    List.iter
      (fun i ->
        match comps.(i) with
        | Cunit u ->
            List.iter
              (function
                | Stencil_unit.Input_empty { input; _ } -> wait_edge i (producer_of ins.(i).(input))
                | Stencil_unit.Output_full k -> wait_edge i (consumer_of outs.(i).(k)))
              (Stencil_unit.blockages u)
        | Creader r ->
            List.iter
              (fun k -> wait_edge i (consumer_of outs.(i).(k)))
              (Memory_unit.Reader.full_outputs r)
        | Cwriter w ->
            if Memory_unit.Writer.waiting_on_input w then wait_edge i (producer_of ins.(i).(0))
        | Clink _ -> ())
      order;
    let wait_cycle =
      match G.topological_sort !g with
      | Ok _ -> []
      | Error remaining ->
          (* Walk successors within the cyclic residue until a repeat. *)
          let in_residue v = List.mem v remaining in
          let rec walk path v =
            if List.mem v path then begin
              (* [path] holds the visit order newest-first; reverse it and
                 trim everything before the first occurrence of v, leaving
                 the cycle in wait-for order (x waits on its successor). *)
              let rec drop = function
                | [] -> []
                | x :: rest -> if x = v then x :: rest else drop rest
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
        (fun i ->
          let reason =
            match comps.(i) with
            | Cunit u -> (
                let blockage = function
                  | Stencil_unit.Input_empty { field; _ } -> "waiting on empty input " ^ field
                  | Stencil_unit.Output_full k ->
                      Printf.sprintf "output %s full" (Channel.name system.channels.(outs.(i).(k)))
                in
                match Stencil_unit.blockages u with
                | _ when Stencil_unit.is_done u -> None
                | [] -> Some "pipeline in flight"
                | bs -> Some (String.concat "; " (List.map blockage bs)))
            | Creader r -> (
                match Memory_unit.Reader.full_outputs r with
                | _ when Memory_unit.Reader.is_done r -> None
                | [] -> Some "waiting for memory bandwidth"
                | _ :: _ -> Some "consumer channel full")
            | Cwriter w -> Memory_unit.Writer.blocked_reason w
            | Clink _ -> None
          in
          Option.map (fun r -> (comp_name comps.(i), r)) reason)
        order
    in
    Deadlocked
      {
        cycle;
        blocked;
        wait_cycle = List.map (fun i -> comp_name comps.(i)) wait_cycle;
        timed_out = not deadlocked;
        telemetry = report ();
        faults;
      }
  end
  else Completed (completed_stats ~faults ~system ~predicted ~cycles:cycle ~report:(report ()))
end

open Internal

(* The one run: the system of a prepared program, driven by one
   scheduler. *)
let outcome ~config ~placement ~inputs prepared =
  let max_cycles = Option.value config.Config.safety.Config.max_cycles ~default:max_int in
  simulate ~config ~placement ~inputs prepared ~drive:(fun system injector finished ->
      let s = scheduler ~config ?injector ~finished system in
      s.advance ~limit:max_cycles;
      (s.now (), s.deadlocked (), s.samples ()))

let run_exn ?(config = Config.default) ?(placement = fun _ -> 0) ?inputs (p : Program.t) =
  let inputs = match inputs with Some i -> i | None -> Interp.random_inputs p in
  outcome ~config ~placement ~inputs (prepare_program ~config p)

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

(* The stencil units and the oracle share the prepared plan. The oracle
   reads only the plan and the inputs: it evaluates on the process's
   resident spare domain ([Executor.overlap]) while this one simulates,
   or inline after the run when the spare cannot take it (a pool
   worker, a one-core host, or the spare busy with another caller's
   oracle). It is prepared here, before the hand-off: preparing on the
   spare measured slower, as its allocation then runs alongside the
   build's. The run's exception or [Error] wins over any oracle
   exception, and an overlapped oracle is still joined first, so the
   spare is free for the next call. *)
let run_prepared ?(config = Config.default) ?(placement = fun _ -> 0) ?inputs ?(validate = false)
    prepared =
  let inputs =
    match inputs with
    | Some i -> i
    | None -> Interp.random_inputs prepared.analysis.Sf_analysis.Delay_buffer.program
  in
  if not validate then to_result ~config (outcome ~config ~placement ~inputs prepared)
  else
    let oracle = try Interp.prepare prepared.plan ~inputs with e -> fun () -> raise e in
    let reference, discard =
      match Sf_support.Executor.overlap oracle with
      | None -> (oracle, ignore)
      | Some join -> (join, fun () -> try ignore (join ()) with _ -> ())
    in
    match to_result ~config (outcome ~config ~placement ~inputs prepared) with
    | Ok stats -> compare_outputs ~reference:(reference ()) stats
    | Error _ as e ->
        discard ();
        e
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        discard ();
        Printexc.raise_with_backtrace e bt

let run ?config ?placement ?inputs p =
  run_prepared ?config ?placement ?inputs (prepare_program ?config p)

(* A malformed program raises before the simulation or the oracle runs. *)
let run_and_validate ?config ?placement ?inputs p =
  run_prepared ?config ?placement ?inputs ~validate:true (prepare_program ?config p)
