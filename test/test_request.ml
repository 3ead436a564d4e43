(* One request, every path: a Request.t run in-process on the main
   domain, the same request decoded from its wire form and executed by a
   two-worker serve loop (so on another domain, over a shared cache), and
   the same request on an already-constructed program (the library
   facade's source) must produce byte-identical result payloads — or,
   when the width is rejected, the same SF codes. *)
module Json = Sf_support.Json
module Diag = Sf_support.Diag
module Request = Sf_toolchain.Request
module Service = Sf_toolchain.Service

(* Every example x verb x fuse x optimize x width. Simulation skips the
   reference validation to keep the matrix fast. *)
let matrix () =
  List.concat_map
    (fun file ->
      List.concat_map
        (fun verb ->
          List.concat_map
            (fun fuse ->
              List.concat_map
                (fun optimize ->
                  List.map
                    (fun width ->
                      Request.make verb (Request.File file)
                        ~options:
                          { Request.default_options with fuse; optimize; width; validate = false })
                    [ None; Some 2 ])
                [ false; true ])
            [ false; true ])
        [ `Analyze; `Simulate; `Codegen ])
    (Test_examples.example_files ())

(* W = 3 does not divide laplace2d's innermost extent: every path must
   reject it with the same SF code. *)
let rejected_width () =
  List.map
    (fun verb ->
      Request.make verb
        (Request.File (Fixtures.example_path "laplace2d.json"))
        ~options:{ Request.default_options with width = Some 3 })
    [ `Analyze; `Simulate; `Codegen ]

(* What a path observed: ok, the SF codes, and the result payload. *)
type outcome = { ok : bool; codes : string list; result : string }

let outcome_testable =
  Alcotest.testable
    (fun fmt o ->
      Format.fprintf fmt "ok=%b codes=[%s] result=%s" o.ok (String.concat "," o.codes) o.result)
    ( = )

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds

let local request =
  match Request.run request with
  | Ok (ctx, _) ->
      let ds = ctx.Sf_toolchain.Ctx.diags in
      {
        ok = not (Diag.has_errors ds);
        codes = codes ds;
        result = Json.to_string ~minify:true (Request.result_json request ctx);
      }
  | Error (ds, _) -> { ok = false; codes = codes ds; result = "null" }

let of_response json =
  let member k = Json.member k json in
  {
    ok = (match member "ok" with Some (Json.Bool b) -> b | _ -> false);
    codes =
      (match member "diagnostics" with
      | Some (Json.List ds) ->
          List.filter_map (fun d -> Option.bind (Json.member "code" d) Json.string_opt) ds
      | _ -> []);
    result = Json.to_string ~minify:true (Option.value (member "result") ~default:Json.Null);
  }

(* Send every request's wire form (what --remote sends) through a real
   serve loop with two workers; answers come back keyed by id. *)
let served requests =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let writer =
    Domain.spawn (fun () ->
        let oc = Unix.out_channel_of_descr req_w in
        List.iteri
          (fun i r ->
            let line =
              match Request.to_json r with
              | Json.Obj fields -> Json.Obj (("id", Json.Int i) :: fields)
              | _ -> assert false
            in
            Out_channel.output_string oc (Json.to_string ~minify:true line);
            Out_channel.output_char oc '\n')
          requests;
        Out_channel.close oc)
  in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Service.serve_loop (Service.create ~serve_jobs:2 ~queue_depth:1024 ()) ic oc;
        Out_channel.close oc;
        In_channel.close ic)
  in
  let ic = Unix.in_channel_of_descr resp_r in
  let answers = Hashtbl.create 256 in
  let rec read () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
        (match Json.parse line with
        | Ok json -> (
            match Option.bind (Json.member "id" json) Json.int_opt with
            | Some i -> Hashtbl.replace answers i (of_response json)
            | None -> Alcotest.fail ("response without id: " ^ line))
        | Error _ -> Alcotest.fail ("response is not JSON: " ^ line));
        read ()
  in
  read ();
  Domain.join writer;
  Domain.join server;
  In_channel.close ic;
  answers

let label (r : Request.t) =
  let o = r.Request.options in
  Printf.sprintf "%s %s fuse=%b optimize=%b width=%s"
    (Request.verb_name r.Request.verb)
    (match r.Request.source with Request.File f -> Filename.basename f | _ -> "?")
    o.Request.fuse o.Request.optimize
    (match o.Request.width with Some w -> string_of_int w | None -> "-")

let fingerprint (ctx : Sf_toolchain.Ctx.t) =
  Option.map Sf_ir.Program.fingerprint ctx.Sf_toolchain.Ctx.program

let test_local_serve_facade_agree () =
  let requests = matrix () @ rejected_width () in
  let answers = served requests in
  let programs = Hashtbl.create 8 in
  let program file =
    match Hashtbl.find_opt programs file with
    | Some p -> p
    | None ->
        let p = Fixtures.ok (Sf_frontend.Program_json.of_file file) in
        Hashtbl.replace programs file p;
        p
  in
  let outcomes =
    List.map
      (fun (r : Request.t) ->
        let name = label r in
        let here = local r in
        (match r.Request.source with
        | Request.File file -> (
            let facade = { r with Request.source = Request.Program (program file) } in
            match r.Request.verb with
            | `Analyze | `Codegen ->
                Alcotest.check outcome_testable ("program source: " ^ name) here (local facade)
            | `Simulate -> (
                (* Every pass after the frontend is a pure function of the
                   program it reads, so equal program digests imply equal
                   simulations; comparing them avoids re-simulating. *)
                match (Request.frontend r, Request.frontend facade) with
                | Ok a, Ok b ->
                    Alcotest.(check bool) ("program source: " ^ name) true
                      (fingerprint a = fingerprint b)
                | Error da, Error db ->
                    Alcotest.(check (list string)) ("program source: " ^ name) (codes da) (codes db)
                | _ -> Alcotest.fail ("program source: " ^ name)))
        | _ -> ());
        here)
      requests
  in
  List.iteri
    (fun i (r, here) ->
      match Hashtbl.find_opt answers i with
      | Some there -> Alcotest.check outcome_testable ("serve: " ^ label r) here there
      | None -> Alcotest.fail ("no serve answer for " ^ label r))
    (List.combine requests outcomes);
  (* Both outcomes of a width override occur. *)
  let rejected = List.filter (fun o -> not o.ok) outcomes in
  Alcotest.(check bool) "some widths rejected" true (rejected <> []);
  Alcotest.(check bool) "most requests succeed" true
    (List.length rejected < List.length requests / 2)

(* Every pass's cache key, read through the digests the contexts keep,
   equals the key recomputed from the values themselves (the same
   context with its kept digests dropped). Each request of the matrix
   runs cold, warm (replayed from memory) and from the disk store (a
   fresh cache over the same directory, whose entries compute their
   digests on first use). The context a pass runs on is the one the
   dump hook saw after the pass before it. *)
let test_kept_digest_keys () =
  let module Cache = Sf_toolchain.Cache in
  let module Ctx = Sf_toolchain.Ctx in
  let module Pass_manager = Sf_toolchain.Pass_manager in
  let dir = Test_store.temp_dir () in
  let store = Sf_support.Store.open_ dir in
  let memory = Cache.with_store (Cache.create ~capacity:4096 ()) store in
  let check_run cache phase request =
    let seen = ref [] in
    let hooks =
      { Pass_manager.no_hooks with dump = Some (fun ~index:_ ~pass:_ ctx -> seen := ctx :: !seen) }
    in
    (match Request.run ~cache ~hooks request with Ok _ -> () | Error _ -> ());
    let before = List.rev !seen in
    List.iteri
      (fun i (pass : Pass_manager.pass) ->
        let ctx = if i = 0 then None else List.nth_opt before (i - 1) in
        match (ctx, pass.Pass_manager.fingerprint ()) with
        | Some ctx, Some options_fp ->
            let key ctx =
              Cache.key ~pass_name:pass.Pass_manager.name ~options_fp:(Some options_fp)
                ~reads:pass.Pass_manager.reads ctx
            in
            Alcotest.(check string)
              (Printf.sprintf "%s %s: %s key" phase (label request) pass.Pass_manager.name)
              (Sf_support.Fingerprint.to_hex (key { ctx with Ctx.digests = [] }))
              (Sf_support.Fingerprint.to_hex (key ctx))
        | _ -> ())
      (Request.passes request)
  in
  let requests = matrix () in
  List.iter (check_run memory "cold") requests;
  List.iter (check_run memory "warm") requests;
  let disk = Cache.with_store (Cache.create ~capacity:4096 ()) store in
  List.iter (check_run disk "disk") requests;
  Alcotest.(check bool) "disk entries replayed" true ((Cache.stats disk).Cache.hits > 0);
  Cache.clear disk

(* Under a non-default operator-latency table the analyze result stays
   self-consistent: [expected_cycles] is Eq. 1 over the same analysis
   that reports [latency_cycles], L + ceil(cells / W). *)
let test_expected_cycles_under_scaled_latency () =
  let d = Sf_analysis.Latency.default in
  let scale x = 3 * x in
  let latency =
    {
      Sf_analysis.Latency.add = scale d.add;
      mul = scale d.mul;
      div = scale d.div;
      sqrt = scale d.sqrt;
      compare = scale d.compare;
      logic = scale d.logic;
      select = scale d.select;
      call = scale d.call;
      min_max = scale d.min_max;
    }
  in
  let config = { Sf_sim.Engine.Config.default with latency } in
  List.iter
    (fun file ->
      List.iter
        (fun (verb, width) ->
          let request =
            Request.make verb (Request.File file)
              ~options:{ Request.default_options with fuse = true; width; validate = false }
          in
          let field ctx k =
            match Json.member k (Request.result_json request ctx) with
            | Some (Json.Int n) -> n
            | _ -> Alcotest.failf "%s: no %s" (label request) k
          in
          match (Request.run ~config request, Request.run request) with
          | Ok (ctx, _), Ok (default_ctx, _) ->
              let p = Option.get ctx.Sf_toolchain.Ctx.program in
              let n =
                Sf_support.Util.ceil_div (Sf_ir.Program.cells p) p.Sf_ir.Program.vector_width
              in
              Alcotest.(check int) (label request) (field ctx "latency_cycles" + n)
                (field ctx "expected_cycles");
              Alcotest.(check bool) (label request ^ ": the table matters") true
                (field ctx "latency_cycles" > field default_ctx "latency_cycles");
              (* A request simulates on its own analysis: the engine run
                 on its program under the same table agrees. *)
              if verb = `Simulate then begin
                let simulated k =
                  match Json.member "simulation" (Request.result_json request ctx) with
                  | Some sim -> (
                      match Json.member k sim with
                      | Some (Json.Int n) -> n
                      | _ -> Alcotest.failf "%s: no simulation %s" (label request) k)
                  | None -> Alcotest.failf "%s: no simulation" (label request)
                in
                let placement =
                  Sf_mapping.Partition.placement_fn (Option.get ctx.Sf_toolchain.Ctx.partition)
                in
                match
                  Sf_sim.Engine.run ~config ~placement
                    ~inputs:(Sf_reference.Interp.random_inputs ~seed:request.Request.options.seed p)
                    p
                with
                | Ok stats ->
                    Alcotest.(check int) (label request ^ ": cycles") stats.Sf_sim.Engine.cycles
                      (simulated "cycles");
                    Alcotest.(check int) (label request ^ ": predicted cycles")
                      stats.Sf_sim.Engine.predicted_cycles (simulated "predicted_cycles")
                | Error d -> Alcotest.fail (Diag.to_string d)
              end
          | _ -> Alcotest.failf "%s failed" (label request))
        [ (`Analyze, None); (`Analyze, Some 2); (`Simulate, None) ])
    (Test_examples.example_files ())

(* The wire form decodes back to the same request, and absent options
   take the one default table. *)
let test_json_roundtrip () =
  List.iter
    (fun r ->
      match Request.of_json (Request.to_json r) with
      | Ok r' -> Alcotest.(check bool) (label r) true (r = r')
      | Error ds -> Alcotest.fail (String.concat "; " (List.map Diag.to_string ds)))
    (matrix ());
  match Request.of_json (Json.of_string {|{"verb": "simulate", "program_file": "p.json"}|}) with
  | Ok r ->
      Alcotest.(check bool) "defaults" true (r.Request.options = Request.default_options);
      Alcotest.(check int) "seed defaults to 42" 42 r.Request.options.Request.seed;
      Alcotest.(check bool) "fuse defaults to false" false r.Request.options.Request.fuse
  | Error _ -> Alcotest.fail "minimal request must decode"

let test_bad_requests () =
  let code line =
    match Request.of_json (Json.of_string line) with
    | Ok _ -> Alcotest.fail ("accepted: " ^ line)
    | Error ds -> codes ds
  in
  Alcotest.(check (list string)) "no program" [ "SF0203" ] (code {|{"verb": "analyze"}|});
  Alcotest.(check (list string)) "bad backend" [ "SF0203" ]
    (code {|{"verb": "codegen", "program_file": "p", "options": {"backend": "verilog"}}|});
  Alcotest.(check (list string)) "not a compile verb" [ "SF0203" ]
    (code {|{"verb": "health", "program_file": "p"}|});
  (* A mistyped option is an error naming the field, not its default. *)
  let message line =
    match Request.of_json (Json.of_string line) with
    | Error [ d ] when d.Diag.code = Diag.Code.format -> d.Diag.message
    | Error ds -> Alcotest.failf "%s: codes %s" line (String.concat "," (codes ds))
    | Ok _ -> Alcotest.fail ("accepted: " ^ line)
  in
  let request options =
    Printf.sprintf {|{"verb": "analyze", "program_file": "p", "options": %s}|} options
  in
  Alcotest.(check string) "options not an object" {|"options" must be an object|}
    (message (request {|"fast"|}));
  Alcotest.(check string) "first bad field" {|option "width" must be an integer|}
    (message (request {|{"width": "4", "fuse": "yes"}|}));
  List.iter
    (fun (field, value, kind) ->
      Alcotest.(check string) field
        (Printf.sprintf "option %S must be %s" field kind)
        (message (request (Printf.sprintf {|{%S: %s}|} field value))))
    [
      ("width", "4.0", "an integer");
      ("devices", "null", "an integer");
      ("seed", "7.5", "an integer");
      ("max_cycles", {|"100"|}, "an integer");
      ("fuse", {|"yes"|}, "a boolean");
      ("optimize", "1", "a boolean");
      ("validate", "[]", "a boolean");
      ("backend", "true", "a string");
    ]

let suite =
  [
    Alcotest.test_case "local, serve and program source agree" `Quick
      test_local_serve_facade_agree;
    Alcotest.test_case "kept digests give the recomputed keys" `Quick test_kept_digest_keys;
    Alcotest.test_case "expected cycles under a scaled latency table" `Quick
      test_expected_cycles_under_scaled_latency;
    Alcotest.test_case "wire form round-trips" `Quick test_json_roundtrip;
    Alcotest.test_case "bad requests are SF0203" `Quick test_bad_requests;
  ]
