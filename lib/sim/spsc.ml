(* Power-of-two ring with monotonically increasing cursors; [land mask]
   maps a cursor to its slot. Cursors are plain ints: at one element per
   simulated cycle they cannot overflow within any realistic run (OCaml
   int wraparound would need 2^62 operations).

   Layout: element fields live in flat unboxed rings ([tags],
   [releases] : int array; [values] : float array; [valid] : bool
   array), so producing is three int stores plus lane blits — no [Some]
   box, no tuple, no per-word allocation anywhere.

   Each side keeps its private cursor and a cached copy of the peer's in
   a [side] record it alone mutates; the shared [head]/[tail] atomics
   are read by the peer only when its cache runs out. The producer's
   atomic + side record are allocated back to back, then a cache line of
   padding, then the consumer's pair — OCaml 5.1 has no
   [Atomic.make_contended], but the minor heap is a bump allocator, so
   consecutive allocations are adjacent and the padding keeps the
   producer-written and consumer-written words on different 64-byte
   lines (they stay adjacent after promotion, which copies in order). *)

type side = {
  mutable cursor : int;  (* this side's true position (producer: staged tail) *)
  mutable published : int;  (* producer only: last value stored into the atomic *)
  mutable peer_cache : int;  (* last value read from the peer's atomic *)
}

type t = {
  mask : int;
  lanes : int;
  tags : int array;
  releases : int array;
  values : float array;
  valid : bool array;
  tail : int Atomic.t;  (* published tail; written by the producer only *)
  prod : side;
  head : int Atomic.t;  (* consume cursor; written by the consumer only *)
  cons : side;
}

let line_pad () = Sys.opaque_identity (Array.make 8 0)

let create ~capacity ~lanes =
  if capacity <= 0 then invalid_arg "Spsc.create: capacity must be positive";
  if lanes <= 0 then invalid_arg "Spsc.create: lanes must be positive";
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  let cap = !cap in
  let tail = Atomic.make 0 in
  let prod = { cursor = 0; published = 0; peer_cache = 0 } in
  let _pad1 = line_pad () in
  let head = Atomic.make 0 in
  let cons = { cursor = 0; published = 0; peer_cache = 0 } in
  let _pad2 = line_pad () in
  ignore _pad1;
  ignore _pad2;
  {
    mask = cap - 1;
    lanes;
    tags = Array.make cap 0;
    releases = Array.make cap 0;
    values = Array.make (cap * lanes) 0.;
    valid = Array.make (cap * lanes) true;
    tail;
    prod;
    head;
    cons;
  }

let capacity t = t.mask + 1
let lanes t = t.lanes
let values t = t.values
let valid t = t.valid

(* ---------------- producer ---------------- *)

let try_produce t ~tag ~release =
  let next = t.prod.cursor in
  if
    next - t.prod.peer_cache > t.mask
    && begin
         (* Looks full against the cached head; refresh and re-check. *)
         t.prod.peer_cache <- Atomic.get t.head;
         next - t.prod.peer_cache > t.mask
       end
  then -1
  else begin
    let slot = next land t.mask in
    t.tags.(slot) <- tag;
    t.releases.(slot) <- release;
    t.prod.cursor <- next + 1;
    slot * t.lanes
  end

let publish t =
  if t.prod.published <> t.prod.cursor then begin
    (* The slot stores above happen before this tail store; the consumer
       synchronizes by loading the tail. *)
    Atomic.set t.tail t.prod.cursor;
    t.prod.published <- t.prod.cursor
  end

let free t =
  t.prod.peer_cache <- Atomic.get t.head;
  t.mask + 1 - (t.prod.cursor - t.prod.peer_cache)

(* ---------------- consumer ---------------- *)

let front t =
  let h = t.cons.cursor in
  if
    h = t.cons.peer_cache
    && begin
         t.cons.peer_cache <- Atomic.get t.tail;
         h = t.cons.peer_cache
       end
  then -1
  else (h land t.mask) * t.lanes

let front_tag t = t.tags.(t.cons.cursor land t.mask)
let front_release t = t.releases.(t.cons.cursor land t.mask)

let available t =
  t.cons.peer_cache <- Atomic.get t.tail;
  t.cons.peer_cache - t.cons.cursor

let release_at t j = t.releases.((t.cons.cursor + j) land t.mask)

let consume t =
  let h = t.cons.cursor in
  if h = t.cons.peer_cache && h = Atomic.get t.tail then failwith "Spsc.consume: empty";
  t.cons.cursor <- h + 1;
  (* Release the slot to the producer with the head store. *)
  Atomic.set t.head (h + 1)

(* ---------------- either ---------------- *)

let length t = Atomic.get t.tail - Atomic.get t.head
let is_empty t = length t = 0

let grow t =
  let t' = create ~capacity:(2 * capacity t) ~lanes:t.lanes in
  let rec copy () =
    let base = front t in
    if base >= 0 then begin
      let dst = try_produce t' ~tag:(front_tag t) ~release:(front_release t) in
      Array.blit t.values base t'.values dst t.lanes;
      Array.blit t.valid base t'.valid dst t.lanes;
      consume t;
      copy ()
    end
  in
  copy ();
  publish t';
  t'
