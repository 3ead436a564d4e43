(* Words in flight on a port live in a {!Spsc} ring of release cycles
   and word lanes, which grows on demand: a full destination can hold
   words back for arbitrarily long. *)
type port = {
  src : Channel.t;
  dst : Channel.t;
  word_bytes : int;
  ring : Spsc.t;
  (* The port's roles in the current fast-forward plan (see [plan]). *)
  mutable delivers : bool;
  mutable injects : bool;
}

type t = {
  name : string;
  controller : Controller.t;
  latency_cycles : int;
  mutable ports : port array;
  probe : Telemetry.probe option;
  (* Injected latency jitter (Fault_plan): inflates the release time of
     words injected while it holds. *)
  mutable extra_latency : int;
  (* The current fast-forward plan: the word size of every injecting
     port in port order. *)
  mutable plan_requests : int list;
}

let create ?probe ~name ~bytes_per_cycle ~latency_cycles () =
  {
    name;
    controller = Controller.create ~bytes_per_cycle;
    latency_cycles;
    ports = [||];
    probe;
    extra_latency = 0;
    plan_requests = [];
  }

let add_port t ~src ~dst ~word_bytes =
  if Channel.has_validity src || Channel.has_validity dst then
    invalid_arg "Link.add_port: link channels carry no validity flags";
  let ring = Spsc.create ~capacity:16 ~lanes:(Channel.width src) in
  t.ports <-
    Array.append t.ports [| { src; dst; word_bytes; ring; delivers = false; injects = false } |]

(* Release cycle of the oldest word in flight, or [max_int]. *)
let head_release p = Spsc.front_release p.ring

(* Move the [n] head words of [p]'s ring into slots [push] appends. *)
let move_heads p n push =
  let src = Spsc.front p.ring and dst = push p.dst n and len = n * Channel.width p.dst in
  Channel.Unsafe.blit_values (Spsc.values p.ring) src (Channel.Unsafe.buf_values p.dst) dst len;
  Spsc.consume p.ring n

let deliver t ~now =
  let progress = ref false in
  for i = 0 to Array.length t.ports - 1 do
    let p = t.ports.(i) in
    if head_release p <= now && not (Channel.is_full p.dst) then begin
      move_heads p 1 Channel.Unsafe.push_slots;
      progress := true
    end
  done;
  !progress

(* Move the [n] front words of [p]'s source into its ring, word [r]
   released at [release + r]. *)
let move_fronts p n ~release =
  let dst = Spsc.produce p.ring ~release n and len = n * Channel.width p.src in
  let src = Channel.Unsafe.front_slot p.src in
  Channel.Unsafe.blit_values (Channel.Unsafe.buf_values p.src) src (Spsc.values p.ring) dst len;
  Channel.Unsafe.drop_run p.src n

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
      move_fronts p 1 ~release;
      progress := true
    end
  done;
  !progress

let stall probe ~now cause c = Telemetry.stall probe ~now ~channel:(Channel.name c) cause

let cycle t ~now =
  (* Delivery first frees destination slots; it never touches the
     bandwidth budget, so running it for every port before injecting on
     any is the per-port deliver-then-inject order. *)
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

(* An injected stall freezes the whole link. The lost cycle is link
   latency when anything waits on it; its bandwidth budget catches up
   the skipped refills at the next [begin_cycle]. *)
let frozen_cycle t ~now =
  match t.probe with
  | None -> ()
  | Some probe -> (
      let busy p = Spsc.front p.ring >= 0 || not (Channel.is_empty p.src) in
      match Array.find_opt busy t.ports with
      | Some p -> stall probe ~now Telemetry.Link_latency p.dst
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Fast-forward planning (see Engine). In a window each port delivers  *)
(* every cycle (its head has matured) or not at all (nothing matures), *)
(* and injects every cycle (its source holds a word) or not at all.    *)
(* Destination room and source words are the engine's channel checks;  *)
(* maturity and the bandwidth budget are checked here.                 *)
(* ------------------------------------------------------------------ *)

let plan t ~now =
  let h = ref max_int and progress = ref false in
  let latency = t.latency_cycles + t.extra_latency in
  Array.iter
    (fun p ->
      p.injects <- not (Channel.is_empty p.src);
      if p.injects then progress := true)
    t.ports;
  t.plan_requests <-
    Array.fold_right (fun p acc -> if p.injects then p.word_bytes :: acc else acc) t.ports [];
  Array.iter
    (fun p ->
      let m = Spsc.length p.ring in
      p.delivers <- head_release p <= now;
      if p.delivers then begin
        (* A matured head held back by a full destination would start
           moving once its consumer pops: not one action per cycle. *)
        if Channel.is_full p.dst then h := 0;
        progress := true;
        (* Past the [m] words in flight it delivers the words it
           injects, which mature in time only if [m] covers the
           latency. *)
        if not (p.injects && latency <= m) then h := Int.min !h m
      end
      else begin
        (* Idle: the window ends before the head, or the first word it
           injects, can be delivered (at the earliest the cycle after
           its injection). *)
        let first =
          if m > 0 then Spsc.front_release p.ring
          else if p.injects then now + Int.max latency 1
          else max_int
        in
        h := Int.min !h (first - now)
      end)
    t.ports;
  if !progress then !h else 0

let plan_delivers t i = t.ports.(i).delivers
let plan_injects t i = t.ports.(i).injects

let fit t ~now k =
  let k = ref k in
  Array.iter
    (fun p ->
      if p.delivers then k := Int.min !k (Spsc.first_immature p.ring ~now))
    t.ports;
  Controller.sustains t.controller ~now ~cycles:!k t.plan_requests

(* Injecting first puts every word the chunk delivers in the ring: one
   injected in the chunk was injected at least [latency] cycles before
   its delivery ([plan]). *)
let run_port t i ~now n =
  let p = t.ports.(i) in
  if p.injects then move_fronts p n ~release:(now + t.latency_cycles + t.extra_latency);
  if p.delivers then move_heads p n Channel.Unsafe.push_run

let grant t ~now n = Controller.grant_rounds t.controller ~now ~cycles:n t.plan_requests

let name t = t.name
let bytes_transferred t = Controller.bytes_granted t.controller

let is_idle t = Array.for_all (fun p -> Spsc.front p.ring < 0) t.ports

let sources_empty t = Array.for_all (fun p -> Channel.is_empty p.src) t.ports

let next_arrival t ~now =
  Array.fold_left
    (fun acc p ->
      let r = head_release p in
      if r > now then min acc r else acc)
    max_int t.ports

let set_extra_latency t v = t.extra_latency <- v
let extra_latency t = t.extra_latency
