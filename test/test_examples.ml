(* The JSON program descriptions shipped under examples/programs must
   parse, validate, roundtrip, and (being small) simulate correctly. *)
module Program_json = Sf_frontend.Program_json
module Engine = Sf_sim.Engine

let example_files () =
  Sys.readdir (Lazy.force Fixtures.examples_dir) |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map Fixtures.example_path

let test_all_examples_load () =
  let files = example_files () in
  Alcotest.(check bool) "examples shipped" true (List.length files >= 4);
  List.iter
    (fun file ->
      let p = Fixtures.ok (Program_json.of_file file) in
      (* Parse -> print -> parse is stable. *)
      let q = Fixtures.ok (Program_json.of_string (Program_json.to_string p)) in
      Alcotest.(check int) (file ^ " roundtrip") (List.length p.Sf_ir.Program.stencils)
        (List.length q.Sf_ir.Program.stencils))
    files

let test_examples_simulate () =
  List.iter
    (fun file ->
      let p = Fixtures.ok (Program_json.of_file file) in
      if Sf_ir.Program.cells p <= 16384 then
        match Engine.run_and_validate p with
        | Ok _ -> ()
        | Error m -> Alcotest.fail (file ^ ": " ^ Sf_support.Diag.to_string m))
    (example_files ())

let suite =
  [
    Alcotest.test_case "shipped programs parse and roundtrip" `Quick test_all_examples_load;
    Alcotest.test_case "shipped programs simulate and validate" `Slow test_examples_simulate;
  ]
