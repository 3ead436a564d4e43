(* Power-of-two ring with monotonically increasing cursors; [land mask]
   maps a cursor to its slot. Cursors are plain ints: at one element per
   simulated cycle they cannot overflow within any realistic run. Lanes
   live in a flat unboxed ring and releases in a {!Release_line}, so
   producing a run of elements is lane stores plus at most one run:
   no box, no tuple, no per-word allocation or release store. *)

type t = {
  lanes : int;
  releases : Release_line.t;
  mutable mask : int;
  mutable values : float array;
  mutable head : int;  (* the oldest element *)
  mutable tail : int;  (* the next element produced *)
}

let alloc t cap =
  t.mask <- cap - 1;
  t.values <- Array.make (cap * t.lanes) 0.

let create ~capacity ~lanes =
  if capacity <= 0 then invalid_arg "Spsc.create: capacity must be positive";
  if lanes <= 0 then invalid_arg "Spsc.create: lanes must be positive";
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  let t =
    { lanes; releases = Release_line.create ~capacity; mask = 0; values = [||]; head = 0; tail = 0 }
  in
  alloc t !cap;
  t

let capacity t = t.mask + 1
let lanes t = t.lanes
let values t = t.values
let length t = t.tail - t.head

(* Double the capacity, moving the elements to the front in order. *)
let grow t =
  let { mask; values; head; _ } = t and n = length t in
  alloc t (2 * (mask + 1));
  for j = 0 to n - 1 do
    let slot = (head + j) land mask in
    Array.blit values (slot * t.lanes) t.values (j * t.lanes) t.lanes
  done;
  t.head <- 0;
  t.tail <- n

let produce t ~release n =
  while length t + n > t.mask + 1 do
    grow t
  done;
  Release_line.append t.releases ~release n;
  let base = (t.tail land t.mask) * t.lanes in
  t.tail <- t.tail + n;
  base

let front t = if t.head = t.tail then -1 else (t.head land t.mask) * t.lanes
let front_release t = Release_line.head t.releases
let release_at t j = Release_line.release_at t.releases j
let first_immature t ~now = Release_line.first_immature t.releases ~now

let consume t n =
  if n > length t then failwith "Spsc.consume: empty";
  Release_line.drop t.releases n;
  t.head <- t.head + n
