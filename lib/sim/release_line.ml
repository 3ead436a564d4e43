(* Runs live in a power-of-two ring of (base, start) pairs. [start] is
   the absolute index of the run's first word, counting every word ever
   appended, and word [a] of the run is released at [base + a]; a run
   ends where the next one starts, the last one at [wtail]. Runs are
   never empty, so the line is empty exactly when it holds no run.
   Cursors only grow, as in {!Spsc}. *)
type t = {
  mutable mask : int;
  mutable base : int array;
  mutable start : int array;
  mutable rhead : int;  (* the oldest run *)
  mutable rtail : int;  (* the next run appended *)
  mutable whead : int;  (* the oldest word *)
  mutable wtail : int;  (* the next word appended *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Release_line.create: capacity must be positive";
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  {
    mask = !cap - 1;
    base = Array.make !cap 0;
    start = Array.make !cap 0;
    rhead = 0;
    rtail = 0;
    whead = 0;
    wtail = 0;
  }

let length t = t.wtail - t.whead

(* Double the ring, moving the runs to the front in order. *)
let grow t =
  let cap = t.mask + 1 in
  let base = Array.make (2 * cap) 0 and start = Array.make (2 * cap) 0 in
  for r = 0 to cap - 1 do
    let s = (t.rhead + r) land t.mask in
    base.(r) <- t.base.(s);
    start.(r) <- t.start.(s)
  done;
  t.mask <- (2 * cap) - 1;
  t.base <- base;
  t.start <- start;
  t.rhead <- 0;
  t.rtail <- cap

let append t ~release n =
  if n > 0 then begin
    let b = release - t.wtail in
    if t.rtail = t.rhead || t.base.((t.rtail - 1) land t.mask) <> b then begin
      if t.rtail - t.rhead > t.mask then grow t;
      let s = t.rtail land t.mask in
      t.base.(s) <- b;
      t.start.(s) <- t.wtail;
      t.rtail <- t.rtail + 1
    end;
    t.wtail <- t.wtail + n
  end

let run_end t r = if r + 1 = t.rtail then t.wtail else t.start.((r + 1) land t.mask)

let drop t n =
  if n > length t then invalid_arg "Release_line.drop: fewer words held";
  t.whead <- t.whead + n;
  while t.rhead < t.rtail && run_end t t.rhead <= t.whead do
    t.rhead <- t.rhead + 1
  done

let head t = if t.rtail = t.rhead then max_int else t.base.(t.rhead land t.mask) + t.whead

let release_at t j =
  let a = t.whead + j in
  let r = ref t.rhead in
  while run_end t !r <= a do
    incr r
  done;
  t.base.(!r land t.mask) + a

(* Word [skip + j] of run [r] is released at [base + whead + skip + j]:
   immature at relative cycle [j] when [base + whead + skip > now],
   whatever [j]. Runs that end before word [skip] are passed over. *)
let first_immature ?(skip = 0) t ~now =
  let x = t.whead + skip in
  let r = ref t.rhead in
  while !r < t.rtail && run_end t !r <= x do
    incr r
  done;
  while !r < t.rtail && t.base.(!r land t.mask) + x <= now do
    incr r
  done;
  if !r = t.rtail then max_int else Int.max 0 (t.start.(!r land t.mask) - x)
