type t = {
  name : string;
  capacity : int;
  slots : int; (* capacity + chunk: room for one fast-forward chunk *)
  width : int;
  values : float array; (* slots * width, ring of slots *)
  valid : bool array;
  mutable head : int; (* slot index of the oldest element *)
  mutable count : int;
  mutable total_pushed : int;
  mutable total_popped : int;
  mutable high_water : int;
  mutable on_push : unit -> unit;
  mutable on_pop : unit -> unit;
}

let nop () = ()
let chunk = 64

let create_vec ~width ~name ~capacity =
  if capacity <= 0 then invalid_arg "Channel.create: capacity must be positive";
  if width <= 0 then invalid_arg "Channel.create: width must be positive";
  let slots = capacity + chunk in
  {
    name;
    capacity;
    slots;
    width;
    values = Array.make (slots * width) 0.;
    valid = Array.make (slots * width) true;
    head = 0;
    count = 0;
    total_pushed = 0;
    total_popped = 0;
    high_water = 0;
    on_push = nop;
    on_pop = nop;
  }

let create ~name ~capacity = create_vec ~width:1 ~name ~capacity
let name t = t.name
let capacity t = t.capacity
let width t = t.width
let occupancy t = t.count
let is_empty t = t.count = 0
let is_full t = t.count = t.capacity

let set_hooks t ~on_push ~on_pop =
  t.on_push <- on_push;
  t.on_pop <- on_pop

let append t =
  let tail = t.head + t.count in
  let tail = if tail >= t.slots then tail - t.slots else tail in
  t.count <- t.count + 1;
  t.total_pushed <- t.total_pushed + 1;
  t.on_push ();
  tail * t.width

let push_slot t =
  if t.count = t.capacity then failwith (Printf.sprintf "Channel.push: %s is full" t.name);
  if t.count >= t.high_water then t.high_water <- t.count + 1;
  append t

let push_chunk_slot t =
  if t.count = t.slots then
    failwith (Printf.sprintf "Channel.push: %s is full past its chunk slack" t.name);
  append t

let settle_high_water ?(ahead = 0) t =
  if t.count + ahead > t.high_water then t.high_water <- t.count + ahead

let front_slot t =
  if t.count = 0 then failwith (Printf.sprintf "Channel.pop: %s is empty" t.name);
  t.head * t.width

let drop t =
  if t.count = 0 then failwith (Printf.sprintf "Channel.pop: %s is empty" t.name);
  t.head <- (if t.head + 1 >= t.slots then 0 else t.head + 1);
  t.count <- t.count - 1;
  t.total_popped <- t.total_popped + 1;
  t.on_pop ()

let push t word =
  if Word.width word <> t.width then
    invalid_arg (Printf.sprintf "Channel.push: %s expects width %d" t.name t.width);
  let base = push_slot t in
  Array.blit word.Word.values 0 t.values base t.width;
  Array.blit word.Word.valid 0 t.valid base t.width

let pop t =
  let base = front_slot t in
  let word = Word.create t.width in
  Array.blit t.values base word.Word.values 0 t.width;
  Array.blit t.valid base word.Word.valid 0 t.width;
  drop t;
  word

let peek t =
  if t.count = 0 then None
  else begin
    let base = front_slot t in
    let word = Word.create t.width in
    Array.blit t.values base word.Word.values 0 t.width;
    Array.blit t.valid base word.Word.valid 0 t.width;
    Some word
  end

let total_pushed t = t.total_pushed
let total_popped t = t.total_popped
let high_water t = t.high_water

module Unsafe = struct
  let buf_values t = t.values
  let buf_valid t = t.valid
  let push_slot = push_slot
  let push_chunk_slot = push_chunk_slot
  let settle_high_water = settle_high_water
  let front_slot = front_slot
end
