(* Words in flight on a port live in a {!Spsc} ring of release cycles
   and word lanes: plain single-domain storage in the sequential engine
   (where it grows on demand, since a full destination can hold words
   back for arbitrarily long), the cross-domain transport of a
   {!direction}. *)
type port = {
  src : Channel.t;
  dst : Channel.t;
  word_bytes : int;
  mutable ring : Spsc.t;
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
  split : bool;  (* a direction: rings are shared across domains and fixed *)
  (* Fault-injection state (Fault_plan): a stalled link neither injects
     nor delivers for the cycle; extra_latency inflates the release time
     of words injected this cycle. Both are cleared by the injector each
     cycle before active faults are re-applied. *)
  mutable stalled : bool;
  mutable extra_latency : int;
  (* The current fast-forward plan: the word size of every injecting
     port in port order, and the most cycles one chunk may span. *)
  mutable plan_requests : int list;
  mutable plan_chunk : int;
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
    plan_requests = [];
    plan_chunk = max_int;
  }

let port ~src ~dst ~word_bytes ~capacity =
  {
    src;
    dst;
    word_bytes;
    ring = Spsc.create ~capacity ~lanes:(Channel.width src);
    delivers = false;
    injects = false;
  }

let add_port t ~src ~dst ~word_bytes =
  t.ports <- Array.append t.ports [| port ~src ~dst ~word_bytes ~capacity:16 |]

(* Release cycle of the oldest word in flight, or [max_int]. *)
let head_release p = if Spsc.front p.ring >= 0 then Spsc.front_release p.ring else max_int

(* Move the head word of [p]'s ring into a slot [push_slot] appends. *)
let move_head p push_slot =
  let src = Spsc.front p.ring and dst = push_slot p.dst in
  let values = Channel.Unsafe.buf_values p.dst and valid = Channel.Unsafe.buf_valid p.dst in
  for lane = 0 to Channel.width p.dst - 1 do
    values.(dst + lane) <- (Spsc.values p.ring).(src + lane);
    valid.(dst + lane) <- (Spsc.valid p.ring).(src + lane)
  done;
  Spsc.consume p.ring

let deliver t ~now =
  let progress = ref false in
  for i = 0 to Array.length t.ports - 1 do
    let p = t.ports.(i) in
    if head_release p <= now && not (Channel.is_full p.dst) then begin
      move_head p Channel.Unsafe.push_slot;
      progress := true
    end
  done;
  !progress

(* Move the front word of [p]'s source into its ring, released at
   [release]. *)
let move_front t p ~release =
  let dst = Spsc.try_produce p.ring ~tag:0 ~release in
  let dst =
    if dst >= 0 then dst
    else if t.split then raise Full
    else begin
      (* [grow] carries published words only. *)
      Spsc.publish p.ring;
      p.ring <- Spsc.grow p.ring;
      Spsc.try_produce p.ring ~tag:0 ~release
    end
  in
  let src = Channel.Unsafe.front_slot p.src in
  let values = Channel.Unsafe.buf_values p.src and valid = Channel.Unsafe.buf_valid p.src in
  for lane = 0 to Channel.width p.src - 1 do
    (Spsc.values p.ring).(dst + lane) <- values.(src + lane);
    (Spsc.valid p.ring).(dst + lane) <- valid.(src + lane)
  done;
  Channel.drop p.src

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
      move_front t p ~release;
      Spsc.publish p.ring;
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

(* ------------------------------------------------------------------ *)
(* Fast-forward planning (see Engine). In a window each port delivers  *)
(* every cycle (its head has matured) or not at all (nothing matures), *)
(* and injects every cycle (its source holds a word) or not at all.    *)
(* Destination room and source words are the engine's channel checks;  *)
(* maturity, ring room and the bandwidth budget are checked here.      *)
(* ------------------------------------------------------------------ *)

type side = Whole | Rx | Tx

(* Each side touches only its own plan state: in a domain-parallel run
   the two halves of a direction share the port records. *)
let plan t ~now side =
  let deliver = side <> Tx and inject = side <> Rx in
  let h = ref max_int and progress = ref false in
  let latency = t.latency_cycles + t.extra_latency in
  if inject then begin
    Array.iter
      (fun p ->
        p.injects <- not (Channel.is_empty p.src);
        if p.injects then begin
          progress := true;
          if t.split then h := Int.min !h (Spsc.free p.ring)
        end)
      t.ports;
    t.plan_requests <-
      Array.fold_right (fun p acc -> if p.injects then p.word_bytes :: acc else acc) t.ports []
  end;
  if deliver then begin
    t.plan_chunk <- max_int;
    Array.iter
      (fun p ->
        let injects = inject && p.injects and m = Spsc.available p.ring in
        p.delivers <- m > 0 && Spsc.front_release p.ring <= now;
        if p.delivers then begin
          (* A matured head held back by a full destination would start
             moving once its consumer pops: not one action per cycle. *)
          if Channel.is_full p.dst then h := 0;
          progress := true;
          (* Past the [m] words in flight it delivers the words it
             injects, which mature in time only if [m] covers the
             latency, and only from an earlier chunk. *)
          if injects && latency <= m then t.plan_chunk <- Int.min t.plan_chunk m
          else h := Int.min !h m
        end
        else begin
          (* Idle: the window ends before the head, or the first word it
             injects, can be delivered (at the earliest the cycle after
             its injection). *)
          let first =
            if m > 0 then Spsc.front_release p.ring
            else if injects then now + Int.max latency 1
            else max_int
          in
          h := Int.min !h (first - now)
        end)
      t.ports
  end;
  if !progress && not t.stalled then !h else 0

let plan_delivers t i = t.ports.(i).delivers
let plan_injects t i = t.ports.(i).injects
let plan_chunk t = t.plan_chunk

let fit t ~now side k =
  let k = ref k in
  if side <> Tx then
    Array.iter
      (fun p ->
        if p.delivers then begin
          let j = ref 0 and m = Spsc.available p.ring in
          while !j < Int.min !k m do
            if Spsc.release_at p.ring !j > now + !j then k := !j else incr j
          done
        end)
      t.ports;
  if side <> Rx then Controller.sustains t.controller ~now ~cycles:!k t.plan_requests else !k

let run_deliver t n =
  Array.iter
    (fun p ->
      if p.delivers then
        for _ = 1 to n do
          move_head p Channel.Unsafe.push_chunk_slot
        done)
    t.ports

let run_inject t ~now n =
  Controller.grant_rounds t.controller ~now ~cycles:n t.plan_requests;
  let release = now + t.latency_cycles + t.extra_latency in
  Array.iter
    (fun p ->
      if p.injects then begin
        for r = 0 to n - 1 do
          move_front t p ~release:(release + r)
        done;
        Spsc.publish p.ring
      end)
    t.ports

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
