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

let account t bytes = t.bytes_granted <- t.bytes_granted + bytes
let set_denied t denied = t.denied <- denied
let is_unlimited t = not (Float.is_finite t.bytes_per_cycle)
let bytes_granted t = t.bytes_granted
let bytes_per_cycle t = t.bytes_per_cycle
