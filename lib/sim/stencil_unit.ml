open Sf_ir
module Tensor = Sf_reference.Tensor
module Compile = Sf_reference.Compile

type input_binding = {
  field : string;
  axes : int list;
  channel : Channel.t option;
  prefetched : Tensor.t option;
}

type input_state = {
  field : string;
  axes : int array;
  channel : Channel.t option;
  (* A view of the input channel's ring over the flattened element
     stream of a full-rank input, reading the channel's history reserve:
     the shift register of Fig. 6. Or the prefetched tensor. *)
  src : Compile.ring;
  start_step : int;
}

type t = {
  name : string;
  shape : int array;
  w : int;
  n_words : int;
  init_max : int;
  compute_cycles : int;
  inputs : input_state array;  (* streaming inputs first *)
  outputs : Channel.t array;
  (* The output whose pending reserve takes computed words ([lead]);
     the others copy its words when they are pushed. *)
  lead : Channel.t;
  (* The lowered body, one tap per load slot and a frame of one row
     segment of at most a chunk, shared with the run's other units of
     the same ringless lowering; [idx] indexes lane 0 of the next word. *)
  prog : Compile.program;
  taps : Compile.taps;
  frame : Compile.frame;
  idx : int array;
  (* Per-lane out-of-bounds flags of a dispatch, only for a shrink unit
     with an output that carries validity: nothing else reads them. *)
  oob : bool array option;
  mutable step : int;
  (* The delay line of computed-but-not-yet-emitted words: their release
     cycles as runs. Their lanes, and a shrink unit's flags, wait in the
     lead output's pending reserve, past its tail. Occupancy never
     exceeds compute_cycles + 1 (the pipeline depth guard in try_step)
     before a step; a fast-forward chunk computes up to
     Channel.chunk ~width:w words before it flushes. *)
  pend : Release_line.t;
  mutable stalls : int;
  (* The current fast-forward plan (see [plan]): from cycle [plan_at],
     segment [j] ends [seg_end.(j)] cycles in, flushes each cycle when
     [seg_flush.(j)] and steps each cycle from step [seg_step.(j)] on
     when that is not negative. *)
  mutable plan_at : int;
  mutable segments : int;
  seg_end : int array;
  seg_flush : bool array;
  seg_step : int array;
  probe : Telemetry.probe option;
}

(* Segments of one plan: a unit's life has six phases (register fill,
   compute without flush, steady state, input end, drain, done), and
   inputs that start or stop consuming at other steps add a few more. *)
let max_segments = 16

let register (info : Sf_analysis.Delay_buffer.node_info) field =
  List.find
    (fun (ib : Sf_analysis.Internal_buffer.t) -> String.equal ib.field field)
    info.Sf_analysis.Delay_buffer.buffers

(* The taps of a step read back the field's register, and a
   fast-forward chunk consumes up to [chunk - 1] more words before the
   first of its steps computes. *)
let history_words ~info ~width field =
  let reg = register info field in
  Sf_support.Util.ceil_div (reg.register_elements + ((Channel.chunk ~width - 1) * width)) width

(* The pipeline depth guard, plus a chunk computed before it flushes. *)
let pending_words ~(info : Sf_analysis.Delay_buffer.node_info) ~width =
  info.Sf_analysis.Delay_buffer.compute_cycles + 2 + Channel.chunk ~width

(* A dispatch of a program without rings binds or fills every slot it
   reads and leaves nothing for the next, so the units of one run that
   share such a lowering share its frame. *)
type frames = (Compile.program * Compile.frame) list ref

let frames () = ref []

let frame_for frames prog ~lanes =
  match List.find_opt (fun (q, _) -> Compile.same_lowering prog q) !frames with
  | Some (_, fr) -> fr
  | None ->
      let fr = Compile.frame prog ~lanes in
      if Compile.rings prog = 0 then frames := (prog, fr) :: !frames;
      fr

let lead (stencil : Stencil.t) ~flags =
  match Array.find_index Fun.id flags with
  | Some i when stencil.Stencil.shrink -> i
  | Some _ | None -> 0

let create ?probe ~frames ~program ~stencil ~lowered:prog ~info ~inputs ~outputs () =
  let { Sf_analysis.Delay_buffer.init_cycles = init_max; compute_cycles; buffers } = info in
  let shape = Array.of_list program.Program.shape in
  let w = program.Program.vector_width in
  let chunk = Channel.chunk ~width:w in
  let cells = Program.cells program in
  let n_words = cells / w in
  let reserve what have need c =
    if have c < need then
      invalid_arg
        (Printf.sprintf "Stencil_unit.create: %s reserves %d %s words, %s needs %d"
           (Channel.name c) (have c) what stencil.Stencil.name need)
  in
  let input_states =
    List.map
      (fun (b : input_binding) ->
        let src, start_step =
          match b.channel with
          | Some c ->
              reserve "history" Channel.history (history_words ~info ~width:w b.field) c;
              ( Compile.view (Channel.Unsafe.buf_values c) ~span:(Channel.history c * w),
                Sf_analysis.Internal_buffer.fill_step buffers (register info b.field) )
          | None -> (Compile.resident (Option.get b.prefetched).Tensor.data, 0)
        in
        { field = b.field; axes = Array.of_list b.axes; channel = b.channel; src; start_step })
      inputs
  in
  let streaming, prefetched =
    List.partition (fun (i : input_state) -> Option.is_some i.channel) input_states
  in
  let inputs_arr = Array.of_list (streaming @ prefetched) in
  (* Every load run reads its input's channel in place, or the
     prefetched tensor of a lower-dimensional input. *)
  let taps =
    Compile.taps prog ~shape (fun field ->
        let input =
          match Array.find_opt (fun i -> String.equal i.field field) inputs_arr with
          | Some i -> i
          | None ->
              failwith (Printf.sprintf "stencil %s: unbound access to %s" stencil.Stencil.name field)
        in
        (input.src, input.axes, Stencil.boundary_for stencil field))
  in
  let lanes = Int.min (chunk * w) shape.(Array.length shape - 1) in
  let outputs = Array.of_list outputs in
  let lead = outputs.(lead stencil ~flags:(Array.map Channel.has_validity outputs)) in
  let oob =
    if stencil.Stencil.shrink && Channel.has_validity lead then Some (Array.make lanes false)
    else None
  in
  reserve "pending" Channel.pending (pending_words ~info ~width:w) lead;
  {
    name = stencil.Stencil.name;
    shape;
    w;
    n_words;
    init_max;
    compute_cycles;
    inputs = inputs_arr;
    outputs;
    lead;
    prog;
    taps;
    frame = frame_for frames prog ~lanes;
    idx = Array.make (Array.length shape) 0;
    oob;
    step = 0;
    (* Runs, not words: words released one cycle apart are one run. *)
    pend = Release_line.create ~capacity:16;
    stalls = 0;
    plan_at = 0;
    segments = 0;
    seg_end = Array.make max_segments 0;
    seg_flush = Array.make max_segments false;
    seg_step = Array.make max_segments (-1);
    probe;
  }

let name t = t.name
let load_runs t = Compile.load_runs t.taps
let total_steps t = t.init_max + t.n_words
let pend_count t = Release_line.length t.pend
let is_done t = t.step >= total_steps t && pend_count t = 0
let stall_cycles t = t.stalls
let add_stalls t n = t.stalls <- t.stalls + n

let next_release t = Release_line.head t.pend

(* Input [i] must consume a word at pipeline step [s]. *)
let consuming_at i s =
  match i.channel with
  | None -> false (* prefetched: never streams *)
  | Some _ -> s >= i.start_step

let consuming_active_at t i s = consuming_at i s && s - i.start_step < t.n_words
let consuming_active t i = consuming_active_at t i t.step

(* Compute the words of the next [n] steps into the lead output's
   pending reserve, word [r] to be released [compute_cycles] after cycle
   [now + r]; a result without shift spread is computed there directly
   unless the run wraps the channel's ring. The W lanes of a word are
   consecutive cells of one innermost-axis row (W divides the innermost
   extent), and so are the words up to the end of that row: each row
   segment is one dispatch, and its releases one run of the release
   line. Words are computed in order, one per step from [init_max] on,
   so the multi-index is carried from word to word, and the dispatches
   of the whole stream run in row-major order on the unit's frame, whose
   rings carry values from row to row. *)
let compute t ~now n =
  let last = Array.length t.shape - 1 in
  let values = Channel.Unsafe.buf_values t.lead and valid = Channel.Unsafe.buf_valid t.lead in
  let r = ref 0 in
  while !r < n do
    let lanes = Int.min ((n - !r) * t.w) (t.shape.(last) - t.idx.(last)) in
    let base = Channel.Unsafe.pending_slot t.lead (pend_count t) in
    Compile.fill t.taps ~idx:t.idx ~lanes t.frame ?oob:t.oob;
    Compile.exec t.prog ~idx:t.idx ~lanes t.frame ~dst:values ~at:base;
    (match t.oob with
    | Some oob ->
        let d = ref base in
        for l = 0 to lanes - 1 do
          valid.(!d) <- not oob.(l);
          incr d;
          if !d = Array.length valid then d := 0
        done
    | None -> ());
    Release_line.append t.pend ~release:(now + !r + t.compute_cycles) (lanes / t.w);
    r := !r + (lanes / t.w);
    Compile.advance ~shape:t.shape t.idx last lanes
  done

(* Emit the [n] pending heads: [push] appends [n] slots to every output.
   The lead's are the heads themselves; the others copy the lead's lanes,
   and its flags where they carry them. *)
let emit_heads t n push =
  let src = Channel.Unsafe.pending_slot t.lead 0 and len = n * t.w in
  for i = 0 to Array.length t.outputs - 1 do
    let c = t.outputs.(i) in
    let base = push c n in
    if c != t.lead then begin
      Channel.Unsafe.blit_values (Channel.Unsafe.buf_values t.lead) src
        (Channel.Unsafe.buf_values c) base len;
      if Option.is_some t.oob && Channel.has_validity c then
        Channel.Unsafe.blit_valid (Channel.Unsafe.buf_valid t.lead) src
          (Channel.Unsafe.buf_valid c) base len
    end
  done;
  Release_line.drop t.pend n

let outputs_have_space t =
  let ok = ref true in
  for i = 0 to Array.length t.outputs - 1 do
    if Channel.is_full t.outputs.(i) then ok := false
  done;
  !ok

let try_flush t ~now =
  if Release_line.head t.pend > now then false
  else if not (outputs_have_space t) then false
  else begin
    emit_heads t 1 Channel.Unsafe.push_slots;
    true
  end

(* Take [n] pipeline steps: consume [n] words of every consuming input,
   which stay in its channel's history for the taps to read; past
   initialization, compute the steps' words. The consuming set and the
   phase hold for all [n]. *)
let take_steps t ~now n =
  for k = 0 to Array.length t.inputs - 1 do
    let i = t.inputs.(k) in
    match i.channel with
    | Some c when consuming_active t i ->
        let v = i.src and len = n * t.w in
        let head = v.Compile.head + len in
        v.head <- (if head >= v.cap then head - v.cap else head);
        v.newest <- v.newest + len;
        Channel.Unsafe.drop_run c n
    | _ -> ()
  done;
  if t.step >= t.init_max then compute t ~now n;
  t.step <- t.step + n

let try_step t ~now =
  if t.step >= total_steps t then false
  else if pend_count t > t.compute_cycles then false
  else begin
    let ready = ref true in
    for k = 0 to Array.length t.inputs - 1 do
      let i = t.inputs.(k) in
      if consuming_active t i then
        match i.channel with
        | Some c -> if Channel.is_empty c then ready := false
        | None -> ()
    done;
    if !ready then take_steps t ~now 1;
    !ready
  end

type blockage = Input_empty of { field : string; input : int } | Output_full of int

(* What blocks the unit, in the order a hardware pipeline would observe
   it: the empty inputs it must pop, then the full outputs it must push.
   Nothing here means it waits on its own pending line (words still
   propagating through the compute latency). *)
let blockages t =
  let acc = ref [] in
  if not (is_done t) then begin
    for k = Array.length t.outputs - 1 downto 0 do
      if Channel.is_full t.outputs.(k) then acc := Output_full k :: !acc
    done;
    for k = Array.length t.inputs - 1 downto 0 do
      let i = t.inputs.(k) in
      match i.channel with
      | Some c when consuming_active t i && Channel.is_empty c ->
          acc := Input_empty { field = i.field; input = k } :: !acc
      | Some _ | None -> ()
    done
  end;
  !acc

let starved_input t =
  let r = ref (-1) and k = ref 0 in
  if not (is_done t) then
    while !r < 0 && !k < Array.length t.inputs do
      let i = t.inputs.(!k) in
      (match i.channel with
      | Some c when consuming_active t i && Channel.is_empty c -> r := !k
      | Some _ | None -> ());
      incr k
    done;
  !r

let cycle t ~now =
  let flushed = try_flush t ~now in
  let stepped = try_step t ~now in
  let progress = flushed || stepped in
  if progress then (match t.probe with Some p -> Telemetry.busy p ~now ~cycles:1 | None -> ())
  else if not (is_done t) then begin
    t.stalls <- t.stalls + 1;
    match t.probe with
    | None -> ()
    | Some p -> (
        match blockages t with
        | Input_empty { input; _ } :: _ ->
            let channel = Channel.name (Option.get t.inputs.(input).channel) in
            Telemetry.stall p ~now ~channel Telemetry.Input_starved
        | Output_full k :: _ ->
            Telemetry.stall p ~now ~channel:(Channel.name t.outputs.(k)) Telemetry.Output_full
        | [] -> Telemetry.stall p ~now Telemetry.Pipeline_drain)
  end;
  progress

(* ------------------------------------------------------------------ *)
(* Fast-forward planning (see Engine): the unit's own schedule over a   *)
(* window, as segments of one repeated action each (flush and/or step), *)
(* assuming every input it pops holds a word and every output it        *)
(* flushes to has room; the engine checks the channels.                 *)
(* ------------------------------------------------------------------ *)

(* Each segment is the action [cycle] would take from a state, repeated
   for as long as that state's phase boundaries and pending-line
   maturity allow; the state then moves on by the segment's cycles. The
   pending line is followed virtually: [flushed] of its words are gone,
   and the [fresh] words computed in the plan so far extend it, one per
   cycle from [base], as a unit never pauses between computing words. *)
let plan t ~now ~until =
  t.plan_at <- now;
  t.segments <- 0;
  if is_done t then 0
  else begin
    let l = t.compute_cycles and total = total_steps t and held = pend_count t in
    let s = ref t.step and cyc = ref now and flushed = ref 0 and fresh = ref 0 and base = ref 0 in
    let horizon = ref (-1) in
    while !horizon < 0 do
      let s0 = !s and now = !cyc in
      let count = held + !fresh - !flushed in
      let head =
        if count = 0 then max_int
        else if !flushed < held then Release_line.release_at t.pend !flushed
        else !base + !flushed - held
      in
      let flush = head <= now in
      let step = s0 < total && count - Bool.to_int flush <= l in
      let compute = step && s0 >= t.init_max in
      if not (flush || step) then
        horizon := if s0 >= total && count = 0 then max_int else now - t.plan_at
      else if now >= until || t.segments = max_segments then horizon := now - t.plan_at
      else begin
        let h = ref max_int in
        if step then begin
          h := total - s0;
          if s0 < t.init_max then h := Int.min !h (t.init_max - s0);
          (* The set of consuming inputs is constant in a segment. *)
          for k = 0 to Array.length t.inputs - 1 do
            let i = t.inputs.(k) in
            if Option.is_some i.channel then begin
              let a = i.start_step and b = i.start_step + t.n_words in
              if s0 < a then h := Int.min !h (a - s0) else if s0 < b then h := Int.min !h (b - s0)
            end
          done
        end;
        if flush then begin
          (* Held entry [j] flushes at relative cycle [j] and must be
             mature there; fresh words share their lag, so either all of
             them are or the first is not. A word computed in the segment
             flushes [count] cycles later, mature only if the line is at
             least as long as the compute latency. *)
          if !flushed < held then
            h := Int.min !h (Release_line.first_immature t.pend ~skip:!flushed ~now);
          if !fresh > 0 && !base - held + !flushed > now then
            h := Int.min !h (Int.max 0 (held - !flushed));
          if not (compute && l <= count) then h := Int.min !h count
        end
        else if compute then begin
          (* Not flushing: the segment ends when the first flush comes
             due and before the pending line refuses another step. *)
          h := Int.min !h (if count > 0 then head - now else max l 1);
          h := Int.min !h (l - count + 1)
        end;
        let h = !h in
        let j = t.segments in
        t.seg_end.(j) <- now + h - t.plan_at;
        t.seg_flush.(j) <- flush;
        t.seg_step.(j) <- (if step then s0 else -1);
        t.segments <- j + 1;
        if flush then flushed := !flushed + h;
        if compute then begin
          if !fresh = 0 then base := now + l;
          fresh := !fresh + h
        end;
        if step then s := s0 + h;
        cyc := now + h
      end
    done;
    !horizon
  end

let plan_segments t = t.segments
let plan_segment_end t j = t.seg_end.(j)
let plan_flushes t j = t.seg_flush.(j)

let plan_pops t j k =
  let s = t.seg_step.(j) in
  s >= 0 && consuming_active_at t t.inputs.(k) s

(* The plan's cycles [now] to [now + n - 1] as one chunk: the engine has
   validated maturity and channel room for the whole window. The steps
   of each segment come first, split where the segment ends, and the
   flushes after; the flushed heads are the ones the per-cycle order
   would emit, since the plan proved each mature in its cycle. *)
let run_planned t ~now n =
  let flushes = ref 0 and a = ref t.plan_at in
  for j = 0 to t.segments - 1 do
    let b = t.plan_at + t.seg_end.(j) in
    let x = Int.max !a now and y = Int.min b (now + n) in
    if x < y then begin
      if t.seg_step.(j) >= 0 then take_steps t ~now:x (y - x);
      if t.seg_flush.(j) then flushes := !flushes + (y - x)
    end;
    a := b
  done;
  if !flushes > 0 then emit_heads t !flushes Channel.Unsafe.push_run
