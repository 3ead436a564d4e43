(* The growable ring under each link port's words in flight. Sequential
   tests pin capacity rounding, growth of a full ring and cursor
   wraparound; the QCheck model checks an arbitrary produce/consume
   sequence against a reference Queue. *)
module Spsc = Sf_sim.Spsc

let test_capacity_rounding () =
  let q = Spsc.create ~capacity:5 ~lanes:1 in
  Alcotest.(check int) "rounded to power of two" 8 (Spsc.capacity q);
  Alcotest.(check int) "lanes" 1 (Spsc.lanes q);
  (match Spsc.create ~capacity:0 ~lanes:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected");
  match Spsc.create ~capacity:1 ~lanes:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lanes 0 must be rejected"

(* Fill the ring, drain two and refill two so the cursors wrap, then
   produce into the full ring: it doubles and keeps the wrapped
   elements, all three lanes included, in order. *)
let test_full_and_wraparound () =
  let q = Spsc.create ~capacity:4 ~lanes:3 in
  let push i =
    let base = Spsc.produce q ~release:(3 * i) 1 in
    (Spsc.values q).(base) <- float_of_int i;
    (Spsc.values q).(base + 1) <- float_of_int (-i);
    (Spsc.values q).(base + 2) <- float_of_int (100 + i)
  in
  let pop i =
    let base = Spsc.front q in
    Alcotest.(check (float 0.)) "lane 0" (float_of_int i) (Spsc.values q).(base);
    Alcotest.(check (float 0.)) "lane 1" (float_of_int (-i)) (Spsc.values q).(base + 1);
    Alcotest.(check (float 0.)) "lane 2" (float_of_int (100 + i)) (Spsc.values q).(base + 2);
    Alcotest.(check int) "release" (3 * i) (Spsc.front_release q);
    Spsc.consume q 1
  in
  for i = 0 to 3 do
    push i
  done;
  Alcotest.(check int) "full" 4 (Spsc.length q);
  Alcotest.(check int) "no growth while it fits" 4 (Spsc.capacity q);
  pop 0;
  pop 1;
  push 4;
  push 5;
  Alcotest.(check int) "wrapped without growth" 4 (Spsc.capacity q);
  Alcotest.(check int) "release_at sees the wrapped tail" 15 (Spsc.release_at q 3);
  push 6;
  Alcotest.(check int) "a full ring doubles" 8 (Spsc.capacity q);
  Alcotest.(check int) "length" 5 (Spsc.length q);
  for i = 2 to 6 do
    pop i
  done;
  Alcotest.(check int) "empty again" (-1) (Spsc.front q);
  match Spsc.consume q 1 with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "consume of empty must fail"

(* Any produce/consume sequence behaves as an unbounded FIFO: growth
   never loses, duplicates or reorders an element. *)
let prop_queue_model =
  QCheck.Test.make ~count:300 ~name:"spsc equals an unbounded FIFO"
    QCheck.(pair (int_range 1 6) (small_list (oneofl [ `Produce; `Consume ])))
    (fun (capacity, ops) ->
      let q = Spsc.create ~capacity ~lanes:1 in
      let model = Queue.create () in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Produce ->
              let base = Spsc.produce q ~release:(2 * !next) 1 in
              (Spsc.values q).(base) <- float_of_int !next;
              Queue.push !next model;
              incr next;
              Spsc.length q = Queue.length model
          | `Consume ->
              if Queue.is_empty model then Spsc.front q = -1
              else begin
                let expect = Queue.pop model in
                let base = Spsc.front q in
                base >= 0
                && Spsc.front_release q = 2 * expect
                && (Spsc.values q).(base) = float_of_int expect
                && begin
                     Spsc.consume q 1;
                     true
                   end
              end)
        ops)

(* Runs of produce and consume equal as many single-element calls: the
   same elements, releases ([release + r] for the [r]th of a run) and
   lanes, in order, across growth and wraparound. *)
let prop_runs_equal_singles =
  QCheck.Test.make ~count:300 ~name:"spsc runs equal single produce/consume"
    QCheck.(pair (int_range 1 6) (small_list (pair bool (int_range 0 9))))
    (fun (capacity, ops) ->
      let lanes = 2 in
      let bulk = Spsc.create ~capacity ~lanes and single = Spsc.create ~capacity ~lanes in
      let next = ref 0 in
      let same () =
        Spsc.length bulk = Spsc.length single
        && List.for_all
             (fun j ->
               let at q l =
                 let slot = ((Spsc.front q / lanes) + j) land (Spsc.capacity q - 1) in
                 (Spsc.values q).((slot * lanes) + l)
               in
               Spsc.release_at bulk j = Spsc.release_at single j
               && at bulk 0 = at single 0 && at bulk 1 = at single 1)
             (List.init (Spsc.length bulk) Fun.id)
      in
      List.for_all
        (fun (produce, n) ->
          if produce then begin
            let base = Spsc.produce bulk ~release:(3 * !next) n in
            for r = 0 to n - 1 do
              let s = Spsc.produce single ~release:((3 * !next) + r) 1 in
              for l = 0 to lanes - 1 do
                let v = float_of_int ((10 * (!next + r)) + l) in
                (Spsc.values single).(s + l) <- v;
                (Spsc.values bulk).((base + (r * lanes) + l) mod Array.length (Spsc.values bulk)) <- v
              done
            done;
            next := !next + n
          end
          else begin
            let n = Int.min n (Spsc.length bulk) in
            Spsc.consume bulk n;
            for _ = 1 to n do
              Spsc.consume single 1
            done
          end;
          same ())
        ops)

let suite =
  [
    Alcotest.test_case "capacity/lanes validation" `Quick test_capacity_rounding;
    Alcotest.test_case "full detection and wraparound" `Quick test_full_and_wraparound;
    QCheck_alcotest.to_alcotest prop_queue_model;
    QCheck_alcotest.to_alcotest prop_runs_equal_singles;
  ]
