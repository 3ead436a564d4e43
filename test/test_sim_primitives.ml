module Channel = Sf_sim.Channel
module Controller = Sf_sim.Controller
module Link = Sf_sim.Link
module Word = Sf_sim.Word

let word v =
  let w = Word.create 1 in
  w.Word.values.(0) <- v;
  w

let test_channel_fifo_order () =
  let c = Channel.create ~name:"c" ~capacity:3 () in
  Alcotest.(check bool) "empty" true (Channel.is_empty c);
  Channel.push c (word 1.);
  Channel.push c (word 2.);
  Channel.push c (word 3.);
  Alcotest.(check bool) "full" true (Channel.is_full c);
  Alcotest.(check (float 0.)) "fifo 1" 1. (Channel.pop c).Word.values.(0);
  Channel.push c (word 4.);
  Alcotest.(check (float 0.)) "fifo 2" 2. (Channel.pop c).Word.values.(0);
  Alcotest.(check (float 0.)) "fifo 3" 3. (Channel.pop c).Word.values.(0);
  Alcotest.(check (float 0.)) "fifo 4" 4. (Channel.pop c).Word.values.(0);
  Alcotest.(check int) "total pushed" 4 (Channel.total_pushed c);
  Alcotest.(check int) "high water" 3 (Channel.high_water c)

let test_channel_overflow_underflow () =
  let c = Channel.create ~name:"c" ~capacity:1 () in
  (match Channel.pop c with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "pop of empty must fail");
  Channel.push c (word 0.);
  match Channel.push c (word 1.) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "push to full must fail"

(* A channel created without validity holds values alone: the Word API
   serves its words as all valid and refuses a word with an invalid
   lane, which it could not carry. *)
let test_channel_without_validity () =
  let c = Channel.create_vec ~width:2 ~name:"c" ~capacity:4 () in
  Alcotest.(check bool) "no flags" false (Channel.has_validity c);
  Alcotest.(check int) "no flag storage" 0 (Array.length (Channel.Unsafe.buf_valid c));
  let w = Word.create 2 in
  w.Word.values.(0) <- 1.;
  w.Word.values.(1) <- 2.;
  Channel.push c w;
  let base = Channel.Unsafe.push_slot c in
  (Channel.Unsafe.buf_values c).(base) <- 3.;
  (Channel.Unsafe.buf_values c).(base + 1) <- 4.;
  let check what (values, word) =
    Alcotest.(check (array (float 0.))) (what ^ " values") values word.Word.values;
    Alcotest.(check (array bool)) (what ^ " all valid") [| true; true |] word.Word.valid
  in
  check "peek" ([| 1.; 2. |], Option.get (Channel.peek c));
  check "pop" ([| 1.; 2. |], Channel.pop c);
  check "slot push, then pop" ([| 3.; 4. |], Channel.pop c);
  Alcotest.(check bool) "empty peek" true (Channel.peek c = None);
  let invalid = Word.create 2 in
  invalid.Word.valid.(1) <- false;
  (match Channel.push c invalid with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a word with an invalid lane must be refused");
  Alcotest.(check int) "nothing pushed" 0 (Channel.occupancy c);
  Alcotest.(check bool) "flags on request" true
    (Channel.has_validity (Channel.create ~validity:true ~name:"v" ~capacity:1 ()))

(* The per-cycle slot push stops at the capacity. A fast-forward chunk
   push may run Channel.chunk words past it, and no further; it leaves
   the high-water mark to settle_high_water. FIFO order holds across
   the slack and around the ring. A chunk is at least 512 cells and at
   least 256 words. *)
(* One ring per edge: [history] words behind the head, then occupancy
   and chunk slack, then [pending] words past the tail. Popped words stay
   readable behind the head while the ring fills to capacity + chunk and
   its pending reserve takes more words; a push that would reach the
   history raises, and so does a pending slot past its reserve. Words
   written to the pending reserve are the ones a push appends. *)
let test_channel_reserves () =
  let chunk = Channel.chunk ~width:1 and history = 3 and pending = 4 in
  let c = Channel.create_vec ~history ~pending ~width:1 ~name:"c" ~capacity:2 () in
  Alcotest.(check (pair int int)) "reserves" (history, pending)
    (Channel.history c, Channel.pending c);
  let values = Channel.Unsafe.buf_values c in
  for i = 0 to 4 do
    values.(Channel.Unsafe.push_slot c) <- float_of_int i;
    Channel.drop c
  done;
  for k = 0 to pending - 1 do
    values.(Channel.Unsafe.pending_slot c k) <- float_of_int (100 + k)
  done;
  let base = Channel.Unsafe.pending_slot c 0 in
  Alcotest.(check int) "a push appends the pending words" base (Channel.Unsafe.push_run c pending);
  let rest = 2 + chunk - pending in
  let base = Channel.Unsafe.push_run c rest in
  Channel.Unsafe.blit_values (Array.init rest (fun i -> float_of_int (200 + i))) 0 values base rest;
  (match Channel.Unsafe.push_run c 1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "a push reaching the history reserve must fail");
  for k = 0 to pending - 1 do
    values.(Channel.Unsafe.pending_slot c k) <- -1.
  done;
  (match Channel.Unsafe.pending_slot c pending with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a pending slot past the reserve must fail");
  let n = Array.length values in
  let front = Channel.Unsafe.front_slot c in
  Alcotest.(check (list (float 0.))) "history behind the head" [ 4.; 3.; 2. ]
    (List.init history (fun k -> values.((front - 1 - k + n) mod n)));
  for i = 0 to pending + rest - 1 do
    let want = if i < pending then 100 + i else 200 + i - pending in
    Alcotest.(check (float 0.)) "fifo" (float_of_int want) (Channel.pop c).Word.values.(0)
  done

let test_channel_chunk_slack () =
  Alcotest.(check (list int)) "chunk words at W = 1, 2, 4, 8" [ 512; 256; 256; 256 ]
    (List.map (fun width -> Channel.chunk ~width) [ 1; 2; 4; 8 ]);
  let chunk = Channel.chunk ~width:1 in
  let c = Channel.create ~name:"c" ~capacity:2 () in
  let push slot v = (Channel.Unsafe.buf_values c).(slot c) <- v in
  (* Move the head so that the chunk wraps around the ring. *)
  for _ = 1 to 3 do
    push Channel.Unsafe.push_slot (-1.);
    Channel.drop c
  done;
  push Channel.Unsafe.push_slot 0.;
  push Channel.Unsafe.push_slot 1.;
  (match Channel.Unsafe.push_slot c with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "push_slot past the capacity must fail");
  let run = Array.init chunk (fun i -> float_of_int (i + 2)) in
  let base = Channel.Unsafe.push_run c chunk in
  Channel.Unsafe.blit_values run 0 (Channel.Unsafe.buf_values c) base chunk;
  (match Channel.Unsafe.push_run c 1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "push_run past capacity + chunk must fail");
  Alcotest.(check int) "high water before settling" 2 (Channel.high_water c);
  Channel.Unsafe.settle_high_water c;
  Alcotest.(check int) "settled high water" (chunk + 2) (Channel.high_water c);
  for i = 0 to chunk + 1 do
    Alcotest.(check (float 0.)) "fifo across the slack" (float_of_int i)
      (Channel.pop c).Word.values.(0)
  done;
  Alcotest.(check bool) "drained" true (Channel.is_empty c)

(* A bulk push or pop of [n] slots equals [n] single-slot operations:
   the same lanes, occupancy, counters and high-water mark, and the hooks
   fire (once for the run, [n] times for the singles) exactly when
   [n > 0]. The channel's head, the source and destination ring lengths
   and the start positions are drawn, so runs wrap the source, the
   destination, or both. *)
let prop_channel_bulk_equals_singles =
  QCheck.Test.make ~count:500 ~name:"bulk channel runs equal single-slot operations"
    QCheck.(
      pair
        (quad (int_range 1 6) (int_range 1 3) (int_range 0 80) (int_range 0 6))
        (quad bool (int_range 0 70) (pair (int_range 0 40) (int_range 0 200))
           (pair (int_range 0 70) (pair (int_range 0 40) (int_range 0 200)))))
    (fun ((capacity, width, rotate, occ), (slack, n, (extra, start), (k, (extra', start')))) ->
      let occ = Int.min occ capacity in
      let make () =
        let c = Channel.create_vec ~validity:true ~width ~name:"q" ~capacity () in
        let pushes = ref 0 and pops = ref 0 in
        Channel.set_hooks c ~on_push:(fun () -> incr pushes) ~on_pop:(fun () -> incr pops);
        (* Move the head around the ring, then hold [occ] words. *)
        for i = 1 to rotate + occ do
          let base = Channel.Unsafe.push_slot c in
          for l = 0 to width - 1 do
            (Channel.Unsafe.buf_values c).(base + l) <- float_of_int ((100 * i) + l)
          done;
          if i <= rotate then Channel.drop c
        done;
        (c, pushes, pops)
      in
      let a, a_pushes, a_pops = make () and b, b_pushes, b_pops = make () in
      let room = (if slack then capacity + Channel.chunk ~width else capacity) - occ in
      let n = n mod (room + 1) in
      let len = n * width in
      let src = Array.init (len + extra + 1) (fun i -> float_of_int (-i)) in
      let src_valid = Array.init (Array.length src) (fun i -> i mod 3 <> 0) in
      let s = start mod Array.length src in
      let push = if slack then Channel.Unsafe.push_run else Channel.Unsafe.push_slots in
      a_pushes := 0;
      b_pushes := 0;
      let base = push a n in
      Channel.Unsafe.blit_values src s (Channel.Unsafe.buf_values a) base len;
      Channel.Unsafe.blit_valid src_valid s (Channel.Unsafe.buf_valid a) base len;
      for j = 0 to n - 1 do
        let base = push b 1 in
        for l = 0 to width - 1 do
          let i = (s + (j * width) + l) mod Array.length src in
          (Channel.Unsafe.buf_values b).(base + l) <- src.(i);
          (Channel.Unsafe.buf_valid b).(base + l) <- src_valid.(i)
        done
      done;
      let same () =
        Channel.Unsafe.buf_values a = Channel.Unsafe.buf_values b
        && Channel.Unsafe.buf_valid a = Channel.Unsafe.buf_valid b
        && Channel.occupancy a = Channel.occupancy b
        && Channel.total_pushed a = Channel.total_pushed b
        && Channel.total_popped a = Channel.total_popped b
        && Channel.high_water a = Channel.high_water b
      in
      let pushed_ok = same () && !a_pushes = Int.min n 1 && !b_pushes = n in
      (* Pop [k] of the words held into a destination ring. *)
      let k = k mod (Channel.occupancy a + 1) in
      let len = k * width in
      let dst_len = len + extra' + 1 in
      let d = start' mod dst_len in
      let dst_a = Array.make dst_len 0. and dst_b = Array.make dst_len 0. in
      let flags_a = Array.make dst_len true and flags_b = Array.make dst_len true in
      a_pops := 0;
      b_pops := 0;
      if k > 0 then begin
        let front = Channel.Unsafe.front_slot a in
        Channel.Unsafe.blit_values (Channel.Unsafe.buf_values a) front dst_a d len;
        Channel.Unsafe.blit_valid (Channel.Unsafe.buf_valid a) front flags_a d len
      end;
      Channel.Unsafe.drop_run a k;
      for j = 0 to k - 1 do
        let front = Channel.Unsafe.front_slot b in
        for l = 0 to width - 1 do
          let i = (d + (j * width) + l) mod dst_len in
          dst_b.(i) <- (Channel.Unsafe.buf_values b).(front + l);
          flags_b.(i) <- (Channel.Unsafe.buf_valid b).(front + l)
        done;
        Channel.drop b
      done;
      pushed_ok && same () && dst_a = dst_b && flags_a = flags_b
      && !a_pops = Int.min k 1 && !b_pops = k)

(* The movers run once per chunk per channel on the fast-forward path:
   none of them may allocate. *)
let test_bulk_allocation_free () =
  let width = 4 and n = 40 in
  let c = Channel.create_vec ~validity:true ~width ~name:"c" ~capacity:8 () in
  let q = Sf_sim.Spsc.create ~capacity:64 ~lanes:width in
  let src = Array.make (Channel.chunk ~width * width) 1.5 in
  let src_flags = Array.make (Array.length src) true in
  let dst = Array.make ((n * width) + 3) 0. in
  let flags = Array.make (Array.length dst) true in
  let run () =
    let base = Channel.Unsafe.push_run c n in
    Channel.Unsafe.blit_values src 0 (Channel.Unsafe.buf_values c) base (n * width);
    Channel.Unsafe.blit_valid src_flags 0 (Channel.Unsafe.buf_valid c) base (n * width);
    let front = Channel.Unsafe.front_slot c in
    Channel.Unsafe.blit_values (Channel.Unsafe.buf_values c) front dst 3 (n * width);
    Channel.Unsafe.blit_valid (Channel.Unsafe.buf_valid c) front flags 3 (n * width);
    Channel.Unsafe.drop_run c n;
    let base = Sf_sim.Spsc.produce q ~release:0 n in
    Channel.Unsafe.blit_values dst 0 (Sf_sim.Spsc.values q) base (n * width);
    Sf_sim.Spsc.consume q n
  in
  run ();
  let calls_per_run = 8 and runs = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    run ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int (runs * calls_per_run) in
  if words >= 1. then Alcotest.failf "bulk movers allocate %.2f minor words per call" words

let test_channel_capacity_positive () =
  match Channel.create ~name:"bad" ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero capacity must be rejected"

let prop_channel_queue_model =
  (* The channel behaves exactly like a bounded queue. *)
  QCheck.Test.make ~count:200 ~name:"channel equals a bounded FIFO"
    QCheck.(pair (int_range 1 8) (small_list (QCheck.oneofl [ `Push; `Pop ])))
    (fun (capacity, ops) ->
      let c = Channel.create ~name:"q" ~capacity () in
      let model = Queue.create () in
      let counter = ref 0. in
      List.for_all
        (fun op ->
          match op with
          | `Push ->
              if Queue.length model < capacity then begin
                counter := !counter +. 1.;
                Queue.push !counter model;
                Channel.push c (word !counter);
                true
              end
              else Channel.is_full c
          | `Pop ->
              if Queue.length model > 0 then begin
                let expected = Queue.pop model in
                (Channel.pop c).Word.values.(0) = expected
              end
              else Channel.is_empty c)
        ops
      && Channel.occupancy c = Queue.length model)

let prop_channel_soa_model =
  (* The zero-allocation slot API and the Word API agree with a model
     queue over random interleavings, including invalid ("shrink") lanes,
     the high-water mark, and the wake-hook firing counts. *)
  QCheck.Test.make ~count:200 ~name:"SoA slot API equals a bounded FIFO"
    QCheck.(
      triple (int_range 1 6) (int_range 1 4)
        (small_list (oneofl [ `SlotPush; `WordPush; `SlotDrop; `WordPop; `Peek ])))
    (fun (capacity, width, ops) ->
      let c = Channel.create_vec ~validity:true ~width ~name:"q" ~capacity () in
      let pushes = ref 0 and pops = ref 0 in
      Channel.set_hooks c ~on_push:(fun () -> incr pushes) ~on_pop:(fun () -> incr pops);
      let model : (float array * bool array) Queue.t = Queue.create () in
      let counter = ref 0 in
      let hw = ref 0 in
      let fresh () =
        incr counter;
        let base = 10 * !counter in
        ( Array.init width (fun l -> float_of_int (base + l)),
          (* Sprinkle invalid lanes the way shrink stencils do. *)
          Array.init width (fun l -> (base + l) mod 3 <> 0) )
      in
      let agree (values, valid) w =
        Array.for_all2 ( = ) values w.Word.values && Array.for_all2 ( = ) valid w.Word.valid
      in
      List.for_all
        (fun op ->
          match op with
          | (`SlotPush | `WordPush) when Queue.length model < capacity ->
              let values, valid = fresh () in
              Queue.push (values, valid) model;
              if !hw < Queue.length model then hw := Queue.length model;
              (match op with
              | `SlotPush ->
                  let base = Channel.Unsafe.push_slot c in
                  Array.blit values 0 (Channel.Unsafe.buf_values c) base width;
                  Array.blit valid 0 (Channel.Unsafe.buf_valid c) base width
              | _ ->
                  let w = Word.create width in
                  Array.blit values 0 w.Word.values 0 width;
                  Array.blit valid 0 w.Word.valid 0 width;
                  Channel.push c w);
              true
          | `SlotPush | `WordPush -> Channel.is_full c
          | `SlotDrop when Queue.length model > 0 ->
              let values, valid = Queue.pop model in
              let base = Channel.Unsafe.front_slot c in
              let ok = ref true in
              for l = 0 to width - 1 do
                if (Channel.Unsafe.buf_values c).(base + l) <> values.(l) then ok := false;
                if (Channel.Unsafe.buf_valid c).(base + l) <> valid.(l) then ok := false
              done;
              Channel.drop c;
              !ok
          | `WordPop when Queue.length model > 0 -> agree (Queue.pop model) (Channel.pop c)
          | `SlotDrop | `WordPop -> Channel.is_empty c
          | `Peek -> (
              match (Channel.peek c, Queue.peek_opt model) with
              | None, None -> true
              | Some w, Some front -> agree front w
              | _ -> false))
        ops
      && Channel.occupancy c = Queue.length model
      && Channel.high_water c = !hw
      && !pushes = !counter
      && !pops = !counter - Queue.length model)

let test_controller_budget () =
  let ctrl = Controller.create ~bytes_per_cycle:8. in
  Controller.begin_cycle ctrl ~now:0;
  Alcotest.(check bool) "grant within budget" true (Controller.request ctrl 8);
  Alcotest.(check bool) "deny beyond budget" false (Controller.request ctrl 1);
  Controller.begin_cycle ctrl ~now:1;
  Alcotest.(check bool) "fresh budget" true (Controller.request ctrl 4);
  Alcotest.(check bool) "partial remains" true (Controller.request ctrl 4);
  Alcotest.(check int) "accounting" 16 (Controller.bytes_granted ctrl)

let test_controller_fractional_rates () =
  (* With 0.5 B/cycle, a 1-byte request succeeds every other cycle. *)
  let ctrl = Controller.create ~bytes_per_cycle:0.5 in
  let grants = ref 0 in
  for now = 1 to 100 do
    Controller.begin_cycle ctrl ~now;
    if Controller.request ctrl 1 then incr grants
  done;
  Alcotest.(check int) "half rate" 50 !grants

let test_controller_no_banking () =
  (* Idle cycles don't bank unbounded bandwidth for later bursts. *)
  let ctrl = Controller.create ~bytes_per_cycle:4. in
  for now = 1 to 10 do
    Controller.begin_cycle ctrl ~now
  done;
  Alcotest.(check bool) "burst capped" false (Controller.request ctrl 100)

let test_controller_unlimited () =
  let ctrl = Controller.unlimited () in
  Controller.begin_cycle ctrl ~now:0;
  Alcotest.(check bool) "always grants" true (Controller.request ctrl max_int)

let test_link_latency_and_order () =
  let src = Channel.create ~name:"src" ~capacity:8 () in
  let dst = Channel.create ~name:"dst" ~capacity:8 () in
  let link = Link.create ~name:"l" ~bytes_per_cycle:4. ~latency_cycles:3 () in
  Link.add_port link ~src ~dst ~word_bytes:4;
  Channel.push src (word 1.);
  Channel.push src (word 2.);
  (* Word 1 injected at cycle 0, delivered no earlier than cycle 3. *)
  for now = 0 to 2 do
    ignore (Link.cycle link ~now)
  done;
  Alcotest.(check bool) "nothing before latency" true (Channel.is_empty dst);
  ignore (Link.cycle link ~now:3);
  Alcotest.(check (float 0.)) "word 1 arrives" 1. (Channel.pop dst).Word.values.(0);
  ignore (Link.cycle link ~now:4);
  Alcotest.(check (float 0.)) "word 2 follows in order" 2. (Channel.pop dst).Word.values.(0);
  Alcotest.(check bool) "idle after drain" true (Link.is_idle link);
  Alcotest.(check int) "bytes counted" 8 (Link.bytes_transferred link);
  (* Words cross a link as values alone. *)
  let flagged = Channel.create ~validity:true ~name:"flagged" ~capacity:8 () in
  match Link.add_port link ~src ~dst:flagged ~word_bytes:4 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a link port into a flagged channel must be refused"

let test_link_bandwidth_shared () =
  (* Two ports share one link's bandwidth: at 4 B/cycle and 4 B words,
     only one word total is injected per cycle. *)
  let mk name = Channel.create ~name ~capacity:8 () in
  let s1 = mk "s1" and d1 = mk "d1" and s2 = mk "s2" and d2 = mk "d2" in
  let link = Link.create ~name:"l" ~bytes_per_cycle:4. ~latency_cycles:0 () in
  Link.add_port link ~src:s1 ~dst:d1 ~word_bytes:4;
  Link.add_port link ~src:s2 ~dst:d2 ~word_bytes:4;
  for i = 1 to 4 do
    Channel.push s1 (word (float_of_int i));
    Channel.push s2 (word (float_of_int (10 * i)))
  done;
  for now = 0 to 20 do
    ignore (Link.cycle link ~now)
  done;
  Alcotest.(check int) "all delivered eventually" 4 (Channel.occupancy d1);
  Alcotest.(check int) "both ports served" 4 (Channel.occupancy d2);
  Alcotest.(check int) "total bytes" 32 (Link.bytes_transferred link)

let test_link_backpressure () =
  (* A full destination blocks delivery but not other ports. *)
  let src = Channel.create ~name:"src" ~capacity:8 () in
  let dst = Channel.create ~name:"dst" ~capacity:1 () in
  let link = Link.create ~name:"l" ~bytes_per_cycle:infinity ~latency_cycles:0 () in
  Link.add_port link ~src ~dst ~word_bytes:4;
  Channel.push src (word 1.);
  Channel.push src (word 2.);
  for now = 0 to 5 do
    ignore (Link.cycle link ~now)
  done;
  Alcotest.(check int) "only capacity delivered" 1 (Channel.occupancy dst);
  ignore (Channel.pop dst);
  for now = 6 to 8 do
    ignore (Link.cycle link ~now)
  done;
  Alcotest.(check (float 0.)) "second arrives after drain" 2. (Channel.pop dst).Word.values.(0)

(* A destination that holds words back makes the in-flight ring grow
   past its initial size; order must survive the growth. *)
let test_link_ring_grows () =
  let src = Channel.create ~name:"src" ~capacity:64 () in
  let dst = Channel.create ~name:"dst" ~capacity:64 () in
  let link = Link.create ~name:"l" ~bytes_per_cycle:infinity ~latency_cycles:100 () in
  Link.add_port link ~src ~dst ~word_bytes:4;
  for i = 1 to 40 do
    Channel.push src (word (float_of_int i))
  done;
  for now = 0 to 39 do
    ignore (Link.cycle link ~now)
  done;
  Alcotest.(check bool) "all in flight" true (Channel.is_empty src);
  for now = 100 to 139 do
    ignore (Link.cycle link ~now)
  done;
  List.iter
    (fun i ->
      Alcotest.(check (float 0.)) "FIFO across growth" (float_of_int i)
        (Channel.pop dst).Word.values.(0))
    (List.init 40 (fun i -> i + 1));
  Alcotest.(check bool) "idle after drain" true (Link.is_idle link)

let test_word_copy_independent () =
  let w = Word.create 4 in
  w.Word.values.(2) <- 7.;
  w.Word.valid.(1) <- false;
  let copy = Word.copy w in
  copy.Word.values.(2) <- 0.;
  copy.Word.valid.(1) <- true;
  Alcotest.(check (float 0.)) "values independent" 7. w.Word.values.(2);
  Alcotest.(check bool) "valid independent" false w.Word.valid.(1);
  Alcotest.(check int) "width" 4 (Word.width w)

(* [Release_line] against the per-word array of releases it replaced:
   appends of runs whose first release continues the last run, jumps
   ahead or falls back (as injected link jitter can), drops of the
   oldest words, and after every operation the length, every word's
   release, the head, and the first word immature at relative cycle [j]
   for [now] around the releases and from every word on (as a unit's
   plan asks after flushing some), against a linear scan. A small run
   capacity makes the line grow. *)
let prop_release_line_matches_array =
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map2
              (fun gap n -> `Append (gap, n))
              (frequency [ (3, return 0); (2, int_range (-4) 6) ])
              (int_range 1 5) );
          (2, map (fun n -> `Drop n) (int_range 1 6));
        ])
  in
  let gen = QCheck.Gen.(pair (int_range 1 4) (list_size (int_range 1 40) op)) in
  QCheck.Test.make ~count:500 ~name:"release line equals the per-word array it replaced"
    (QCheck.make gen) (fun (capacity, ops) ->
      let line = Sf_sim.Release_line.create ~capacity in
      let model = ref [||] and next = ref 10 in
      let agrees () =
        let m = !model and len = Array.length !model in
        let head = if len = 0 then max_int else m.(0) in
        (* Word [j] is immature at [now] when [m.(j) - j > now]: every
           [now] from below the least such difference to the greatest. *)
        let slack = Array.mapi (fun j r -> r - j) m in
        let lo = Array.fold_left Int.min 0 slack - 2 and hi = Array.fold_left Int.max 0 slack + 1 in
        let nows = List.init (hi - lo + 1) (( + ) lo) in
        Sf_sim.Release_line.length line = len
        && Sf_sim.Release_line.head line = head
        && List.for_all (fun j -> Sf_sim.Release_line.release_at line j = m.(j)) (List.init len Fun.id)
        && List.for_all
             (fun now ->
               List.for_all
                 (fun skip ->
                   let scan = ref max_int in
                   for j = len - 1 - skip downto 0 do
                     if m.(skip + j) > now + j then scan := j
                   done;
                   Sf_sim.Release_line.first_immature line ~skip ~now = !scan)
                 (List.init (len + 1) Fun.id))
             nows
      in
      List.for_all
        (fun op ->
          (match op with
          | `Append (gap, n) ->
              let release = !next + gap in
              Sf_sim.Release_line.append line ~release n;
              model := Array.append !model (Array.init n (( + ) release));
              next := release + n
          | `Drop n ->
              let n = Int.min n (Array.length !model) in
              Sf_sim.Release_line.drop line n;
              model := Array.sub !model n (Array.length !model - n));
          agrees ())
        ops)

let suite =
  [
    Alcotest.test_case "channel FIFO order and stats" `Quick test_channel_fifo_order;
    Alcotest.test_case "channel overflow/underflow" `Quick test_channel_overflow_underflow;
    Alcotest.test_case "channel capacity validation" `Quick test_channel_capacity_positive;
    Alcotest.test_case "channel without validity serves all-valid words" `Quick
      test_channel_without_validity;
    Alcotest.test_case "channel chunk slack past the capacity" `Quick test_channel_chunk_slack;
    Alcotest.test_case "channel history and pending reserves" `Quick test_channel_reserves;
    QCheck_alcotest.to_alcotest prop_channel_queue_model;
    QCheck_alcotest.to_alcotest prop_channel_soa_model;
    QCheck_alcotest.to_alcotest prop_channel_bulk_equals_singles;
    Alcotest.test_case "bulk movers allocate nothing" `Quick test_bulk_allocation_free;
    Alcotest.test_case "controller budget accounting" `Quick test_controller_budget;
    Alcotest.test_case "controller fractional rates" `Quick test_controller_fractional_rates;
    Alcotest.test_case "controller does not bank bandwidth" `Quick test_controller_no_banking;
    Alcotest.test_case "controller unlimited mode" `Quick test_controller_unlimited;
    Alcotest.test_case "link latency preserves order" `Quick test_link_latency_and_order;
    Alcotest.test_case "link bandwidth is shared" `Quick test_link_bandwidth_shared;
    Alcotest.test_case "link backpressure" `Quick test_link_backpressure;
    Alcotest.test_case "link in-flight ring grows" `Quick test_link_ring_grows;
    Alcotest.test_case "word copies are independent" `Quick test_word_copy_independent;
    QCheck_alcotest.to_alcotest prop_release_line_matches_array;
  ]
