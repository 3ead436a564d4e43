(* Words in flight on a port live in a {!Spsc} ring of release cycles
   and word lanes: plain single-domain storage in the sequential engine
   (where it grows on demand, since a full destination can hold words
   back for arbitrarily long), the cross-domain transport of a
   {!direction}. *)
type port = { src : Channel.t; dst : Channel.t; word_bytes : int; mutable ring : Spsc.t }

type t = {
  name : string;
  controller : Controller.t;
  latency_cycles : int;
  mutable ports : port array;
  probe : Telemetry.probe option;
  split : bool;  (* a direction: rings are shared across domains and fixed *)
  (* Fault-injection state (Fault_plan): a stalled link neither injects
     nor delivers for the cycle; extra_latency inflates the release time
     of words injected this cycle. Both are cleared by the injector each
     cycle before active faults are re-applied. *)
  mutable stalled : bool;
  mutable extra_latency : int;
}

exception Full

let create ?probe ~name ~bytes_per_cycle ~latency_cycles () =
  {
    name;
    controller = Controller.create ~bytes_per_cycle;
    latency_cycles;
    ports = [||];
    probe;
    split = false;
    stalled = false;
    extra_latency = 0;
  }

let port ~src ~dst ~word_bytes ~capacity =
  { src; dst; word_bytes; ring = Spsc.create ~capacity ~lanes:(Channel.width src) }

let add_port t ~src ~dst ~word_bytes =
  t.ports <- Array.append t.ports [| port ~src ~dst ~word_bytes ~capacity:16 |]

(* Release cycle of the oldest word in flight, or [max_int]. *)
let head_release p = if Spsc.front p.ring >= 0 then Spsc.front_release p.ring else max_int

let deliver t ~now =
  let progress = ref false in
  for i = 0 to Array.length t.ports - 1 do
    let p = t.ports.(i) in
    if head_release p <= now && not (Channel.is_full p.dst) then begin
      let src = Spsc.front p.ring and dst = Channel.Unsafe.push_slot p.dst in
      let w = Channel.width p.dst in
      Array.blit (Spsc.values p.ring) src (Channel.Unsafe.buf_values p.dst) dst w;
      Array.blit (Spsc.valid p.ring) src (Channel.Unsafe.buf_valid p.dst) dst w;
      Spsc.consume p.ring;
      progress := true
    end
  done;
  !progress

let inject t ~now =
  Controller.begin_cycle t.controller ~now;
  (* Injected latency jitter only delays release times; each port's ring
     stays FIFO and delivery takes the head only, so word order is
     preserved under any jitter. *)
  let release = now + t.latency_cycles + t.extra_latency in
  let progress = ref false in
  for i = 0 to Array.length t.ports - 1 do
    let p = t.ports.(i) in
    if (not (Channel.is_empty p.src)) && Controller.request t.controller p.word_bytes then begin
      let dst = Spsc.try_produce p.ring ~tag:0 ~release in
      let dst =
        if dst >= 0 then dst
        else if t.split then raise Full
        else begin
          p.ring <- Spsc.grow p.ring;
          Spsc.try_produce p.ring ~tag:0 ~release
        end
      in
      let src = Channel.Unsafe.front_slot p.src and w = Channel.width p.src in
      Array.blit (Channel.Unsafe.buf_values p.src) src (Spsc.values p.ring) dst w;
      Array.blit (Channel.Unsafe.buf_valid p.src) src (Spsc.valid p.ring) dst w;
      Spsc.publish p.ring;
      Channel.drop p.src;
      progress := true
    end
  done;
  !progress

let stall probe ~now cause c = Telemetry.stall probe ~now ~channel:(Channel.name c) cause

let cycle t ~now =
  if t.stalled then begin
    Controller.begin_cycle t.controller ~now;
    (* An injected stall freezes the whole link for the cycle. Classify
       the lost cycle as link latency when anything is waiting on it. *)
    (match t.probe with
    | None -> ()
    | Some probe -> (
        let busy p = Spsc.front p.ring >= 0 || not (Channel.is_empty p.src) in
        match Array.find_opt busy t.ports with
        | Some p -> stall probe ~now Telemetry.Link_latency p.dst
        | None -> ()));
    false
  end
  else begin
    (* Delivery first frees destination slots; it never touches the
       bandwidth budget, so running it for every port before injecting
       on any is the per-port deliver-then-inject order. *)
    let delivered = deliver t ~now in
    let injected = inject t ~now in
    let progress = delivered || injected in
    (match t.probe with
    | None -> ()
    | Some probe ->
        if progress then Telemetry.busy probe ~now ~cycles:1
        else begin
          (* Classify the blocked cycle in backpressure-first order: a
             matured word refused by a full destination, then a source
             word refused by the shared bandwidth budget (injection is
             always attempted when a source is non-empty), then words
             merely still in flight. A link with no work records nothing. *)
          let matured_blocked p = head_release p <= now && Channel.is_full p.dst in
          match Array.find_opt matured_blocked t.ports with
          | Some p -> stall probe ~now Telemetry.Output_full p.dst
          | None -> (
              match Array.find_opt (fun p -> not (Channel.is_empty p.src)) t.ports with
              | Some p -> stall probe ~now Telemetry.Bandwidth_denied p.src
              | None -> (
                  match Array.find_opt (fun p -> Spsc.front p.ring >= 0) t.ports with
                  | Some p -> stall probe ~now Telemetry.Link_latency p.dst
                  | None -> ()))
        end);
    progress
  end

let direction t ~srcs ~capacity =
  let split p = port ~src:p.src ~dst:p.dst ~word_bytes:p.word_bytes ~capacity in
  let ports = List.filter (fun p -> List.memq p.src srcs) (Array.to_list t.ports) in
  {
    t with
    controller = Controller.create ~bytes_per_cycle:(Controller.bytes_per_cycle t.controller);
    ports = Array.of_list (List.map split ports);
    probe = None;
    split = true;
  }

let name t = t.name
let bytes_transferred t = Controller.bytes_granted t.controller
let credit_bytes t n = Controller.account t.controller n

let is_idle t = Array.for_all (fun p -> Spsc.front p.ring < 0) t.ports

let port_channels t = Array.to_list (Array.map (fun p -> (p.src, p.dst)) t.ports)
let sources_empty t = Array.for_all (fun p -> Channel.is_empty p.src) t.ports

let next_arrival t ~now =
  Array.fold_left
    (fun acc p ->
      let r = head_release p in
      if r > now then min acc r else acc)
    max_int t.ports

let set_stalled t v = t.stalled <- v
let set_extra_latency t v = t.extra_latency <- v
let extra_latency t = t.extra_latency
