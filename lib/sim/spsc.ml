(* Power-of-two ring with monotonically increasing cursors; [land mask]
   maps a cursor to its slot. Cursors are plain ints: at one element per
   simulated cycle they cannot overflow within any realistic run.
   Element fields live in flat unboxed rings, so producing is one int
   store plus lane stores: no box, no tuple, no per-word allocation. *)

type t = {
  lanes : int;
  mutable mask : int;
  mutable releases : int array;
  mutable values : float array;
  mutable valid : bool array;
  mutable head : int;  (* the oldest element *)
  mutable tail : int;  (* the next element produced *)
}

let alloc t cap =
  t.mask <- cap - 1;
  t.releases <- Array.make cap 0;
  t.values <- Array.make (cap * t.lanes) 0.;
  t.valid <- Array.make (cap * t.lanes) true

let create ~capacity ~lanes =
  if capacity <= 0 then invalid_arg "Spsc.create: capacity must be positive";
  if lanes <= 0 then invalid_arg "Spsc.create: lanes must be positive";
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  let t = { lanes; mask = 0; releases = [||]; values = [||]; valid = [||]; head = 0; tail = 0 } in
  alloc t !cap;
  t

let capacity t = t.mask + 1
let lanes t = t.lanes
let values t = t.values
let valid t = t.valid
let length t = t.tail - t.head

(* Double the capacity, moving the elements to the front in order. *)
let grow t =
  let { mask; releases; values; valid; head; _ } = t and n = length t in
  alloc t (2 * (mask + 1));
  for j = 0 to n - 1 do
    let slot = (head + j) land mask in
    t.releases.(j) <- releases.(slot);
    Array.blit values (slot * t.lanes) t.values (j * t.lanes) t.lanes;
    Array.blit valid (slot * t.lanes) t.valid (j * t.lanes) t.lanes
  done;
  t.head <- 0;
  t.tail <- n

let produce t ~release =
  if length t > t.mask then grow t;
  let slot = t.tail land t.mask in
  t.releases.(slot) <- release;
  t.tail <- t.tail + 1;
  slot * t.lanes

let front t = if t.head = t.tail then -1 else (t.head land t.mask) * t.lanes
let front_release t = t.releases.(t.head land t.mask)
let release_at t j = t.releases.((t.head + j) land t.mask)

let consume t =
  if t.head = t.tail then failwith "Spsc.consume: empty";
  t.head <- t.head + 1
