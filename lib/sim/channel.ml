type t = {
  name : string;
  capacity : int;
  bound : int; (* capacity + chunk ~width: room for one fast-forward chunk *)
  history : int; (* slots kept behind the head for the consumer's taps *)
  pending : int; (* slots past the tail for the producer's pending words *)
  slots : int; (* history + bound + pending *)
  width : int;
  values : float array; (* slots * width, ring of slots *)
  valid : bool array; (* as [values], or empty: every lane valid *)
  mutable head : int; (* slot index of the oldest element *)
  mutable count : int;
  mutable total_pushed : int;
  mutable total_popped : int;
  mutable high_water : int;
  mutable on_push : unit -> unit;
  mutable on_pop : unit -> unit;
}

let nop () = ()
let chunk ~width = Int.max 256 ((512 + width - 1) / width)

let create_vec ?(validity = false) ?(history = 0) ?(pending = 0) ~width ~name ~capacity () =
  if capacity <= 0 then invalid_arg "Channel.create: capacity must be positive";
  if width <= 0 then invalid_arg "Channel.create: width must be positive";
  if history < 0 || pending < 0 then invalid_arg "Channel.create: reserves must not be negative";
  let bound = capacity + chunk ~width in
  let slots = history + bound + pending in
  {
    name;
    capacity;
    bound;
    history;
    pending;
    slots;
    width;
    values = Array.make (slots * width) 0.;
    valid = (if validity then Array.make (slots * width) true else [||]);
    head = 0;
    count = 0;
    total_pushed = 0;
    total_popped = 0;
    high_water = 0;
    on_push = nop;
    on_pop = nop;
  }

let create ?validity ~name ~capacity () = create_vec ?validity ~width:1 ~name ~capacity ()
let name t = t.name
let capacity t = t.capacity
let history t = t.history
let pending t = t.pending
let width t = t.width
let has_validity t = Array.length t.valid > 0
let occupancy t = t.count
let is_empty t = t.count = 0
let is_full t = t.count = t.capacity

let set_hooks t ~on_push ~on_pop =
  t.on_push <- on_push;
  t.on_pop <- on_pop

(* Append [n] slots (the last [n] of the ring) and return the base of the
   first: one occupancy and counter update and one hook call. *)
let append t n =
  let tail = t.head + t.count in
  let tail = if tail >= t.slots then tail - t.slots else tail in
  t.count <- t.count + n;
  t.total_pushed <- t.total_pushed + n;
  if n > 0 then t.on_push ();
  tail * t.width

let push_slots t n =
  if t.count + n > t.capacity then failwith (Printf.sprintf "Channel.push: %s is full" t.name);
  if t.count + n > t.high_water then t.high_water <- t.count + n;
  append t n

let push_slot t = push_slots t 1

let push_run t n =
  if t.count + n > t.bound then
    failwith (Printf.sprintf "Channel.push: %s is full past its chunk slack" t.name);
  append t n

let settle_high_water ?(peak = 0) t =
  let peak = Int.max peak t.count in
  if peak > t.high_water then t.high_water <- peak

(* Past the tail, the [pending] slots that nothing holds yet. *)
let pending_slot t k =
  if k < 0 || k >= t.pending then
    invalid_arg (Printf.sprintf "Channel.pending_slot: %s reserves %d slots" t.name t.pending);
  let s = t.head + t.count + k in
  (if s >= t.slots then s - t.slots else s) * t.width

let front_slot t =
  if t.count = 0 then failwith (Printf.sprintf "Channel.pop: %s is empty" t.name);
  t.head * t.width

let drop_run t n =
  if n > t.count then failwith (Printf.sprintf "Channel.pop: %s is empty" t.name);
  let head = t.head + n in
  t.head <- (if head >= t.slots then head - t.slots else head);
  t.count <- t.count - n;
  t.total_popped <- t.total_popped + n;
  if n > 0 then t.on_pop ()

let drop t = drop_run t 1

(* Copy [len] elements of ring [src] from [s] to ring [dst] from [d]. Each
   ring is its whole array and wraps at its end, and [len] fits in both,
   so this is at most three segments: up to the nearer wrap, up to the
   farther one, and the rest. *)
let rec ring_copy seg src s dst d len =
  if len > 0 then begin
    let sn = Array.length src and dn = Array.length dst in
    if len > Int.min sn dn then invalid_arg "Channel.Unsafe: the run does not fit its rings";
    let m = Int.min len (Int.min (sn - s) (dn - d)) in
    seg src s dst d m;
    ring_copy seg src (if s + m = sn then 0 else s + m) dst (if d + m = dn then 0 else d + m)
      (len - m)
  end

(* Array.blit would store each bool through the write barrier. *)
let copy_bools (src : bool array) s (dst : bool array) d m =
  for i = 0 to m - 1 do
    Array.unsafe_set dst (d + i) (Array.unsafe_get src (s + i))
  done

let blit_values src s dst d len = ring_copy Array.blit src s dst d len
let blit_valid src s dst d len = ring_copy copy_bools src s dst d len

let push t word =
  if Word.width word <> t.width then
    invalid_arg (Printf.sprintf "Channel.push: %s expects width %d" t.name t.width);
  if not (has_validity t || Array.for_all Fun.id word.Word.valid) then
    invalid_arg (Printf.sprintf "Channel.push: %s carries no validity flags" t.name);
  let base = push_slot t in
  Array.blit word.Word.values 0 t.values base t.width;
  if has_validity t then Array.blit word.Word.valid 0 t.valid base t.width

(* A copy of the slot at [base]; all valid when the channel carries no
   flags. *)
let word_at t base =
  let word = Word.create t.width in
  Array.blit t.values base word.Word.values 0 t.width;
  if has_validity t then Array.blit t.valid base word.Word.valid 0 t.width;
  word

let pop t =
  let word = word_at t (front_slot t) in
  drop t;
  word

let peek t = if t.count = 0 then None else Some (word_at t (front_slot t))

let total_pushed t = t.total_pushed
let total_popped t = t.total_popped
let high_water t = t.high_water

module Unsafe = struct
  let buf_values t = t.values
  let buf_valid t = t.valid
  let push_slot = push_slot
  let push_slots = push_slots
  let push_run = push_run
  let settle_high_water = settle_high_water
  let pending_slot = pending_slot
  let front_slot = front_slot
  let drop_run = drop_run
  let blit_values = blit_values
  let blit_valid = blit_valid
end
