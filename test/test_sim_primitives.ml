module Channel = Sf_sim.Channel
module Controller = Sf_sim.Controller
module Link = Sf_sim.Link
module Word = Sf_sim.Word

let word v =
  let w = Word.create 1 in
  w.Word.values.(0) <- v;
  w

let test_channel_fifo_order () =
  let c = Channel.create ~name:"c" ~capacity:3 in
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
  let c = Channel.create ~name:"c" ~capacity:1 in
  (match Channel.pop c with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "pop of empty must fail");
  Channel.push c (word 0.);
  match Channel.push c (word 1.) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "push to full must fail"

(* The per-cycle slot push stops at the capacity. A fast-forward chunk
   push may run Channel.chunk words past it, and no further; it leaves
   the high-water mark to settle_high_water. FIFO order holds across
   the slack and around the ring. *)
let test_channel_chunk_slack () =
  let c = Channel.create ~name:"c" ~capacity:2 in
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
  for i = 2 to Channel.chunk + 1 do
    push Channel.Unsafe.push_chunk_slot (float_of_int i)
  done;
  (match Channel.Unsafe.push_chunk_slot c with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "push_chunk_slot past capacity + chunk must fail");
  Alcotest.(check int) "high water before settling" 2 (Channel.high_water c);
  Channel.Unsafe.settle_high_water c;
  Alcotest.(check int) "settled high water" (Channel.chunk + 2) (Channel.high_water c);
  for i = 0 to Channel.chunk + 1 do
    Alcotest.(check (float 0.)) "fifo across the slack" (float_of_int i)
      (Channel.pop c).Word.values.(0)
  done;
  Alcotest.(check bool) "drained" true (Channel.is_empty c)

let test_channel_capacity_positive () =
  match Channel.create ~name:"bad" ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero capacity must be rejected"

let prop_channel_queue_model =
  (* The channel behaves exactly like a bounded queue. *)
  QCheck.Test.make ~count:200 ~name:"channel equals a bounded FIFO"
    QCheck.(pair (int_range 1 8) (small_list (QCheck.oneofl [ `Push; `Pop ])))
    (fun (capacity, ops) ->
      let c = Channel.create ~name:"q" ~capacity in
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
      let c = Channel.create_vec ~width ~name:"q" ~capacity in
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
  let src = Channel.create ~name:"src" ~capacity:8 in
  let dst = Channel.create ~name:"dst" ~capacity:8 in
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
  Alcotest.(check int) "bytes counted" 8 (Link.bytes_transferred link)

let test_link_bandwidth_shared () =
  (* Two ports share one link's bandwidth: at 4 B/cycle and 4 B words,
     only one word total is injected per cycle. *)
  let mk name = Channel.create ~name ~capacity:8 in
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
  let src = Channel.create ~name:"src" ~capacity:8 in
  let dst = Channel.create ~name:"dst" ~capacity:1 in
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
  let src = Channel.create ~name:"src" ~capacity:64 in
  let dst = Channel.create ~name:"dst" ~capacity:64 in
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

let suite =
  [
    Alcotest.test_case "channel FIFO order and stats" `Quick test_channel_fifo_order;
    Alcotest.test_case "channel overflow/underflow" `Quick test_channel_overflow_underflow;
    Alcotest.test_case "channel capacity validation" `Quick test_channel_capacity_positive;
    Alcotest.test_case "channel chunk slack past the capacity" `Quick test_channel_chunk_slack;
    QCheck_alcotest.to_alcotest prop_channel_queue_model;
    QCheck_alcotest.to_alcotest prop_channel_soa_model;
    Alcotest.test_case "controller budget accounting" `Quick test_controller_budget;
    Alcotest.test_case "controller fractional rates" `Quick test_controller_fractional_rates;
    Alcotest.test_case "controller does not bank bandwidth" `Quick test_controller_no_banking;
    Alcotest.test_case "controller unlimited mode" `Quick test_controller_unlimited;
    Alcotest.test_case "link latency preserves order" `Quick test_link_latency_and_order;
    Alcotest.test_case "link bandwidth is shared" `Quick test_link_bandwidth_shared;
    Alcotest.test_case "link backpressure" `Quick test_link_backpressure;
    Alcotest.test_case "link in-flight ring grows" `Quick test_link_ring_grows;
    Alcotest.test_case "word copies are independent" `Quick test_word_copy_independent;
  ]
