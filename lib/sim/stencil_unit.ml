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
  (* Ring buffer over the flattened element stream of a full-rank input:
     the shift register of Fig. 6. *)
  window : Compile.ring option;
  src : Compile.ring;  (* the window, or the prefetched tensor *)
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
  (* The lowered body, one tap per load slot and a frame of one row
     segment of at most a chunk; [idx] indexes lane 0 of the next word. *)
  prog : Compile.program;
  taps : Compile.taps;
  frame : float array;
  stride : int;
  result : int;
  idx : int array;
  (* Per-lane out-of-bounds flags of a dispatch, only for a shrink unit
     with an output that carries validity: nothing else reads them. *)
  oob : bool array option;
  mutable step : int;
  (* The delay line of computed-but-not-yet-emitted words: their release
     cycles as runs, and a structure-of-arrays ring of their lane values
     and validity flattened at [slot * w]. The flags exist only when an
     output carries them; they start all valid and only a shrink unit
     writes them. Occupancy never exceeds compute_cycles + 1 (the
     pipeline depth guard in try_step) before a step; a fast-forward
     chunk computes up to Channel.chunk ~width:w words before it flushes. *)
  pend : Release_line.t;
  pend_values : float array;
  pend_valid : bool array;
  pend_cap : int;
  mutable pend_head : int;
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

let create ?probe ~program ~stencil ~lowered:prog ~info ~inputs ~outputs () =
  let { Sf_analysis.Delay_buffer.init_cycles = init_max; compute_cycles; buffers } = info in
  let shape = Array.of_list program.Program.shape in
  let w = program.Program.vector_width in
  let chunk = Channel.chunk ~width:w in
  let cells = Program.cells program in
  let n_words = cells / w in
  let full_rank = Program.rank program in
  let input_states =
    List.map
      (fun (b : input_binding) ->
        let is_full = List.length b.axes = full_rank in
        let window, start_step =
          if not is_full then (None, 0)
          else begin
            let reg =
              List.find
                (fun (ib : Sf_analysis.Internal_buffer.t) -> String.equal ib.field b.field)
                buffers
            in
            (* The register, plus room for the words a step and a
               fast-forward chunk shift in before their taps are read. *)
            let cap = reg.register_elements + ((2 + chunk) * w) in
            ( Some { Compile.data = Array.make cap 0.; cap; newest = -1; head = -1 },
              Sf_analysis.Internal_buffer.fill_step buffers reg )
          end
        in
        {
          field = b.field;
          axes = Array.of_list b.axes;
          channel = b.channel;
          window;
          src =
            (match window with
            | Some win -> win
            | None -> Compile.resident (Option.get b.prefetched).Tensor.data);
          start_step;
        })
      inputs
  in
  let streaming, prefetched =
    List.partition (fun (i : input_state) -> Option.is_some i.channel) input_states
  in
  let inputs_arr = Array.of_list (streaming @ prefetched) in
  (* Every load run reads its input's window at its offsets, or the
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
  let pend_cap = compute_cycles + 2 + chunk in
  let lanes = Int.min (chunk * w) shape.(Array.length shape - 1) in
  let stride = Compile.stride prog ~lanes in
  let flagged = List.exists Channel.has_validity outputs in
  {
    name = stencil.Stencil.name;
    shape;
    w;
    n_words;
    init_max;
    compute_cycles;
    inputs = inputs_arr;
    outputs = Array.of_list outputs;
    prog;
    taps;
    frame = Compile.frame prog ~lanes;
    stride;
    result = Compile.result prog ~stride;
    idx = Array.make (Array.length shape) 0;
    oob = (if stencil.Stencil.shrink && flagged then Some (Array.make lanes false) else None);
    step = 0;
    (* Runs, not words: words released one cycle apart are one run. *)
    pend = Release_line.create ~capacity:16;
    pend_values = Array.make (pend_cap * w) 0.;
    pend_valid = (if flagged then Array.make (pend_cap * w) true else [||]);
    pend_cap;
    pend_head = 0;
    stalls = 0;
    plan_at = 0;
    segments = 0;
    seg_end = Array.make max_segments 0;
    seg_flush = Array.make max_segments false;
    seg_step = Array.make max_segments (-1);
    probe;
  }

let name t = t.name
let total_steps t = t.init_max + t.n_words
let pend_count t = Release_line.length t.pend
let is_done t = t.step >= total_steps t && pend_count t = 0
let stall_cycles t = t.stalls
let add_stalls t n = t.stalls <- t.stalls + n

let next_release t = Release_line.head t.pend

(* Input [i] must consume a word at pipeline step [s]. *)
let consuming_at i s =
  match i.window with
  | None -> false (* prefetched: never streams *)
  | Some _ -> s >= i.start_step

let consuming_active_at t i s = consuming_at i s && s - i.start_step < t.n_words
let consuming_active t i = consuming_active_at t i t.step

(* Compute the words of the next [n] steps into the tail of the pending
   line, word [r] to be released [compute_cycles] after cycle [now + r].
   The W lanes of a word are consecutive cells of one innermost-axis row
   (W divides the innermost extent), and so are the words up to the end
   of that row: each row segment is one dispatch, and its releases one
   run of the release line. Words are computed in order, one per step
   from [init_max] on, so the multi-index is carried from word to word,
   and the dispatches of the whole stream run in row-major order on the
   unit's one frame, whose rings carry values from row to row. *)
let compute t ~now n =
  let last = Array.length t.shape - 1 in
  let r = ref 0 in
  while !r < n do
    let lanes = Int.min ((n - !r) * t.w) (t.shape.(last) - t.idx.(last)) in
    Compile.fill t.taps ~idx:t.idx ~lanes ~stride:t.stride t.frame ?oob:t.oob;
    Compile.exec t.prog ~idx:t.idx ~lanes t.frame;
    let tail = t.pend_head + pend_count t in
    let tail = if tail >= t.pend_cap then tail - t.pend_cap else tail in
    Channel.Unsafe.blit_values t.frame t.result t.pend_values (tail * t.w) lanes;
    (match t.oob with
    | Some oob ->
        let d = ref (tail * t.w) in
        for l = 0 to lanes - 1 do
          t.pend_valid.(!d) <- not oob.(l);
          incr d;
          if !d = Array.length t.pend_valid then d := 0
        done
    | None -> ());
    Release_line.append t.pend ~release:(now + !r + t.compute_cycles) (lanes / t.w);
    r := !r + (lanes / t.w);
    Compile.advance ~shape:t.shape t.idx last lanes
  done

(* Emit the [n] pending heads: copy their lanes into [n] slots [push]
   appends to every output, in place, with their flags where the output
   carries them. *)
let emit_heads t n push =
  let vbase = t.pend_head * t.w and len = n * t.w in
  for i = 0 to Array.length t.outputs - 1 do
    let c = t.outputs.(i) in
    let base = push c n in
    Channel.Unsafe.blit_values t.pend_values vbase (Channel.Unsafe.buf_values c) base len;
    if Channel.has_validity c then
      Channel.Unsafe.blit_valid t.pend_valid vbase (Channel.Unsafe.buf_valid c) base len
  done;
  let head = t.pend_head + n in
  t.pend_head <- (if head >= t.pend_cap then head - t.pend_cap else head);
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

(* Take [n] pipeline steps: shift [n] words of every consuming input
   into its window, one ring copy per input; past initialization,
   compute the steps' words. The consuming set and the phase hold for
   all [n]. *)
let take_steps t ~now n =
  for k = 0 to Array.length t.inputs - 1 do
    let i = t.inputs.(k) in
    match (i.channel, i.window) with
    | Some c, Some win when consuming_active t i ->
        let len = n * t.w in
        let head = if win.Compile.head + 1 = win.cap then 0 else win.head + 1 in
        Channel.Unsafe.blit_values (Channel.Unsafe.buf_values c) (Channel.Unsafe.front_slot c)
          win.data head len;
        win.newest <- win.newest + len;
        win.head <- (head + len - 1) mod win.cap;
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
            if Option.is_some i.window then begin
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
