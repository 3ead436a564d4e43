module Reader = Sf_sim.Memory_unit.Reader
module Writer = Sf_sim.Memory_unit.Writer
module Channel = Sf_sim.Channel
module Controller = Sf_sim.Controller
module Word = Sf_sim.Word
module Tensor = Sf_reference.Tensor
module Interp = Sf_reference.Interp

let word ?(valid = true) v =
  let w = Word.create 1 in
  w.Word.values.(0) <- v;
  w.Word.valid.(0) <- valid;
  w

let test_reader_multicast_order () =
  let tensor = Tensor.of_array [ 4 ] [| 1.; 2.; 3.; 4. |] in
  let c1 = Channel.create ~name:"c1" ~capacity:8 () in
  let c2 = Channel.create ~name:"c2" ~capacity:8 () in
  let r =
    Reader.create ~name:"r" ~tensor ~vector_width:1 ~element_bytes:4
      ~controller:(Controller.unlimited ()) ~outputs:[ c1; c2 ] ()
  in
  let now = ref 0 in
  while Reader.cycle r ~now:!now do
    incr now
  done;
  Alcotest.(check bool) "done" true (Reader.is_done r);
  Alcotest.(check int) "all words on both channels" 4 (Channel.occupancy c1);
  List.iter
    (fun c ->
      List.iter
        (fun expected -> Alcotest.(check (float 0.)) "order" expected (Channel.pop c).Word.values.(0))
        [ 1.; 2.; 3.; 4. ])
    [ c1; c2 ]

let test_reader_respects_backpressure () =
  let tensor = Tensor.of_array [ 4 ] [| 1.; 2.; 3.; 4. |] in
  let c1 = Channel.create ~name:"c1" ~capacity:1 () in
  let c2 = Channel.create ~name:"c2" ~capacity:8 () in
  let r =
    Reader.create ~name:"r" ~tensor ~vector_width:1 ~element_bytes:4
      ~controller:(Controller.unlimited ()) ~outputs:[ c1; c2 ] ()
  in
  Alcotest.(check bool) "first word moves" true (Reader.cycle r ~now:0);
  (* c1 now full: nothing moves (multicast is all-or-nothing). *)
  Alcotest.(check bool) "blocked by the slow consumer" false (Reader.cycle r ~now:1);
  Alcotest.(check int) "fast consumer got exactly one" 1 (Channel.occupancy c2);
  ignore (Channel.pop c1);
  Alcotest.(check bool) "resumes after drain" true (Reader.cycle r ~now:2)

let test_reader_respects_bandwidth () =
  let tensor = Tensor.of_array [ 4 ] [| 1.; 2.; 3.; 4. |] in
  let c = Channel.create ~name:"c" ~capacity:8 () in
  let ctrl = Controller.create ~bytes_per_cycle:4. in
  let r =
    Reader.create ~name:"r" ~tensor ~vector_width:1 ~element_bytes:8 ~controller:ctrl
      ~outputs:[ c ] ()
  in
  (* 8-byte elements at 4 B/cycle: one word every other cycle. *)
  let moved = ref 0 in
  for now = 1 to 8 do
    Controller.begin_cycle ctrl ~now;
    if Reader.cycle r ~now then incr moved
  done;
  Alcotest.(check int) "half rate" 4 !moved

let test_writer_drops_invalid_lanes () =
  let c = Channel.create ~validity:true ~name:"c" ~capacity:8 () in
  let w =
    Writer.create ~name:"w" ~shape:[ 4 ] ~vector_width:1 ~element_bytes:4
      ~controller:(Controller.unlimited ()) ~input:c ()
  in
  Channel.push c (word 1.);
  Channel.push c (word ~valid:false 2.);
  Channel.push c (word 3.);
  Channel.push c (word 4.);
  let now = ref 0 in
  while Writer.cycle w ~now:!now do
    incr now
  done;
  Alcotest.(check bool) "done" true (Writer.is_done w);
  let r = Writer.result w in
  Alcotest.(check (float 0.)) "valid written" 1. (Tensor.get_flat r.Interp.tensor 0);
  Alcotest.(check (float 0.)) "invalid left at zero" 0. (Tensor.get_flat r.Interp.tensor 1);
  Alcotest.(check bool) "mask recorded" true
    (r.Interp.valid.(0) && (not r.Interp.valid.(1)) && r.Interp.valid.(2))

let test_writer_waits_for_bandwidth () =
  let c = Channel.create ~validity:true ~name:"c" ~capacity:8 () in
  let ctrl = Controller.create ~bytes_per_cycle:0. in
  let w =
    Writer.create ~name:"w" ~shape:[ 2 ] ~vector_width:1 ~element_bytes:4 ~controller:ctrl
      ~input:c ()
  in
  Channel.push c (word 1.);
  Controller.begin_cycle ctrl ~now:0;
  Alcotest.(check bool) "denied" false (Writer.cycle w ~now:0);
  Alcotest.(check int) "word not consumed" 1 (Channel.occupancy c);
  Alcotest.(check bool) "reports bandwidth wait" true
    (Writer.blocked_reason w = Some "waiting for memory bandwidth")

let test_vector_width_must_divide () =
  let tensor = Tensor.of_array [ 3 ] [| 1.; 2.; 3. |] in
  match
    Reader.create ~name:"r" ~tensor ~vector_width:2 ~element_bytes:4
      ~controller:(Controller.unlimited ()) ~outputs:[] ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "W=2 over 3 elements must be rejected"

let suite =
  [
    Alcotest.test_case "reader multicasts in order" `Quick test_reader_multicast_order;
    Alcotest.test_case "reader backpressure is all-or-nothing" `Quick
      test_reader_respects_backpressure;
    Alcotest.test_case "reader respects bandwidth" `Quick test_reader_respects_bandwidth;
    Alcotest.test_case "writer drops shrink lanes" `Quick test_writer_drops_invalid_lanes;
    Alcotest.test_case "writer waits for bandwidth" `Quick test_writer_waits_for_bandwidth;
    Alcotest.test_case "vector width divisibility" `Quick test_vector_width_must_divide;
  ]
