type t = {
  bytes_per_cycle : float;
  mutable budget : float;
  mutable bytes_granted : int;
  mutable denied : bool;
  mutable refilled : int;  (* the last cycle refilled *)
}

let create ~bytes_per_cycle =
  { bytes_per_cycle; budget = 0.; bytes_granted = 0; denied = false; refilled = -1 }
let unlimited () = create ~bytes_per_cycle:infinity

(* Carry only the fractional remainder: an idle bus does not bank
   whole cycles of bandwidth for later bursts. So two refills without a
   grant between them saturate the budget, and one catch-up refill
   stands for the refills of any number of skipped cycles. *)
let begin_cycle t ~now =
  let refill () = t.budget <- Float.min t.budget t.bytes_per_cycle +. t.bytes_per_cycle in
  if Float.is_finite t.bytes_per_cycle then begin
    if t.refilled < now - 1 then refill ();
    refill ()
  end;
  t.refilled <- now

let request t bytes =
  if t.denied then false
  else if not (Float.is_finite t.bytes_per_cycle) then begin
    t.bytes_granted <- t.bytes_granted + bytes;
    true
  end
  else if t.budget >= float_of_int bytes then begin
    t.budget <- t.budget -. float_of_int bytes;
    t.bytes_granted <- t.bytes_granted + bytes;
    true
  end
  else false

(* [cycles] rounds of [begin_cycle] and one [request] per size in
   [bytes], on a copy of the budget: how many leading rounds grant every
   request, and the budget they leave. Once a round past the first (which
   may catch up a refill) leaves the budget where it found it, every
   later round repeats it, so the loop stops at that fixed point. *)
let rounds t ~now ~cycles bytes =
  if t.denied && bytes <> [] then (0, t.budget)
  else if not (Float.is_finite t.bytes_per_cycle) then (cycles, t.budget)
  else begin
    let refill b = Float.min b t.bytes_per_cycle +. t.bytes_per_cycle in
    (* A refusal yields NaN, which no later request is granted from. *)
    let grant b n = if b >= float_of_int n then b -. float_of_int n else Float.nan in
    let budget = ref t.budget and granted = ref 0 and refused = ref false in
    while (not !refused) && !granted < cycles do
      let before = !budget in
      let b = if !granted = 0 && t.refilled < now - 1 then refill before else before in
      let after = List.fold_left grant (refill b) bytes in
      if Float.is_nan after then refused := true
      else begin
        budget := after;
        incr granted;
        if after = before && !granted > 1 then granted := cycles
      end
    done;
    (!granted, !budget)
  end

let sustains t ~now ~cycles bytes = fst (rounds t ~now ~cycles bytes)

let grant_rounds t ~now ~cycles bytes =
  t.budget <- snd (rounds t ~now ~cycles bytes);
  t.refilled <- now + cycles - 1;
  t.bytes_granted <- t.bytes_granted + (cycles * List.fold_left ( + ) 0 bytes)

let account t bytes = t.bytes_granted <- t.bytes_granted + bytes
let set_denied t denied = t.denied <- denied
let is_unlimited t = not (t.denied || Float.is_finite t.bytes_per_cycle)
let bytes_granted t = t.bytes_granted
