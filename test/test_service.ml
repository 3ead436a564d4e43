(* The serve request loop, driven in-process through [Service.handle]. *)
module Json = Sf_support.Json
module Service = Sf_toolchain.Service

let program_json =
  {|{"name": "svc", "shape": [8, 8],
     "inputs": {"a": {}},
     "stencils": {"b": {"code": "a[0,0] * 2.0 + a[0,1]",
                        "boundary": {"a": {"type": "constant", "value": 0.0}}}},
     "outputs": ["b"]}|}

let request ?(verb = "analyze") ?(id = "1") ?(options = "") () =
  Printf.sprintf {|{"id": %s, "verb": %S, "program": %s%s}|} id verb program_json
    (if options = "" then "" else ", \"options\": " ^ options)

let handle_ok t line =
  let resp, continue = Service.handle t line in
  (match continue with `Continue -> () | `Stop -> Alcotest.fail "unexpected stop");
  match Json.parse resp with
  | Ok json -> json
  | Error _ -> Alcotest.fail ("response is not JSON: " ^ resp)

let field path json =
  List.fold_left
    (fun j k ->
      match Option.bind j (Json.member k) with
      | Some v -> Some v
      | None -> None)
    (Some json) path

let int_field path json =
  match Option.bind (field path json) Json.int_opt with
  | Some n -> n
  | None -> Alcotest.fail ("missing int field " ^ String.concat "." path)

let bool_field path json =
  match field path json with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.fail ("missing bool field " ^ String.concat "." path)

let test_analyze_roundtrip () =
  let t = Service.create () in
  let json = handle_ok t (request ()) in
  Alcotest.(check bool) "ok" true (bool_field [ "ok" ] json);
  Alcotest.(check bool) "has latency" true
    (int_field [ "result"; "latency_cycles" ] json > 0);
  (* The id is echoed back verbatim. *)
  Alcotest.(check int) "id echoed" 1 (int_field [ "id" ] json)

let test_repeat_request_fully_cached () =
  let t = Service.create () in
  let cold = handle_ok t (request ()) in
  let warm = handle_ok t (request ~id:"2" ()) in
  Alcotest.(check bool) "cold executed passes" true
    (int_field [ "passes"; "executed" ] cold > 0);
  Alcotest.(check int) "warm executed zero passes" 0
    (int_field [ "passes"; "executed" ] warm);
  Alcotest.(check int) "warm replayed every pass"
    (int_field [ "passes"; "executed" ] cold)
    (int_field [ "passes"; "cached" ] warm);
  (* Identical payloads modulo the echoed id, the pass trace's cached
     flags, the cache counters and the timing. *)
  let result j = Option.get (field [ "result" ] j) in
  Alcotest.(check string) "results bit-identical"
    (Json.to_string ~minify:true (result cold))
    (Json.to_string ~minify:true (result warm))

let test_formatting_does_not_defeat_cache () =
  let t = Service.create () in
  ignore (handle_ok t (request ()));
  (* Same program, different whitespace: inline programs are minified
     before keying, so this must be a full cache hit. *)
  let reformatted =
    request ~id:"3" () |> String.split_on_char '\n' |> List.map String.trim
    |> String.concat " "
  in
  let warm = handle_ok t reformatted in
  Alcotest.(check int) "still zero executed" 0 (int_field [ "passes"; "executed" ] warm)

let test_option_change_misses () =
  let t = Service.create () in
  ignore (handle_ok t (request ()));
  let changed = handle_ok t (request ~id:"4" ~options:{|{"width": 4}|} ()) in
  Alcotest.(check bool) "vectorized request re-executes" true
    (int_field [ "passes"; "executed" ] changed > 0)

let test_bad_requests_keep_loop_alive () =
  let t = Service.create () in
  let malformed = handle_ok t "{not json" in
  Alcotest.(check bool) "malformed -> ok:false" false (bool_field [ "ok" ] malformed);
  let unknown = handle_ok t {|{"verb": "transmogrify"}|} in
  Alcotest.(check bool) "unknown verb -> ok:false" false (bool_field [ "ok" ] unknown);
  let missing = handle_ok t {|{"verb": "analyze"}|} in
  Alcotest.(check bool) "missing program -> ok:false" false (bool_field [ "ok" ] missing);
  (* The service still works afterwards. *)
  Alcotest.(check bool) "still serving" true (bool_field [ "ok" ] (handle_ok t (request ())))

let test_evict_and_stats () =
  let t = Service.create () in
  ignore (handle_ok t (request ()));
  let stats = handle_ok t {|{"verb": "cache-stats"}|} in
  Alcotest.(check bool) "entries after a run" true (int_field [ "result"; "entries" ] stats > 0);
  let evict = handle_ok t {|{"verb": "evict"}|} in
  Alcotest.(check int) "evict reports drops"
    (int_field [ "result"; "entries" ] stats)
    (int_field [ "result"; "entries_dropped" ] evict);
  let stats' = handle_ok t {|{"verb": "cache-stats"}|} in
  Alcotest.(check int) "cache empty" 0 (int_field [ "result"; "entries" ] stats')

let test_shutdown_stops () =
  let t = Service.create () in
  match Service.handle t {|{"verb": "shutdown"}|} with
  | _, `Stop -> ()
  | _, `Continue -> Alcotest.fail "shutdown must stop the loop"

(* Concurrency ------------------------------------------------------- *)

module Pass_manager = Sf_toolchain.Pass_manager

(* A family of small distinct programs (the stencil constant varies), so
   concurrent domains produce a mix of cache misses, hits and joins. *)
let family_program i =
  Printf.sprintf
    {|{"name": "svc%d", "shape": [8, 8],
       "inputs": {"a": {}},
       "stencils": {"b": {"code": "a[0,0] * %d.0 + a[0,1]",
                          "boundary": {"a": {"type": "constant", "value": 0.0}}}},
       "outputs": ["b"]}|}
    i (i + 2)

let family_request ~id ~verb i =
  (* One line: the serve loop is newline-delimited. *)
  Printf.sprintf {|{"id": %S, "verb": %S, "program": %s, "options": {"validate": false}}|} id
    verb (family_program i)
  |> String.split_on_char '\n' |> List.map String.trim |> String.concat " "

let result_payload json = Json.to_string ~minify:true (Option.get (field [ "result" ] json))

(* N domains x M mixed requests against one shared service: every result
   payload must be byte-identical to the one a fresh serial service
   computes for the same request — concurrent execution (and whichever
   mix of misses/hits/joins it produces) never changes an answer. *)
let test_concurrent_handle_matches_serial () =
  let domains = 4 and per = 8 in
  let verb i = if i mod 2 = 0 then "analyze" else "simulate" in
  let t = Service.create () in
  let run d =
    List.init per (fun i ->
        let id = Printf.sprintf "%d-%d" d i in
        (i, result_payload (handle_ok t (family_request ~id ~verb:(verb i) i))))
  in
  let spawned = List.init domains (fun d -> Domain.spawn (fun () -> run d)) in
  let concurrent = List.map Domain.join spawned in
  let serial_service = Service.create () in
  let serial =
    List.init per (fun i ->
        result_payload (handle_ok serial_service (family_request ~id:"s" ~verb:(verb i) i)))
  in
  List.iter
    (List.iter (fun (i, payload) ->
         Alcotest.(check string) "payload matches serial run" (List.nth serial i) payload))
    concurrent

(* Concurrent identical requests: the single-flight protocol lets only
   one domain execute the simulate pass; everyone else replays (as a
   join while it runs, as a plain hit afterwards) the same entry. *)
let test_single_flight_dedup () =
  let mu = Mutex.create () in
  let executed = ref 0 and replayed = ref 0 in
  let on_trace ~verb:_ trace =
    Mutex.lock mu;
    List.iter
      (fun (tm : Pass_manager.timing) ->
        if tm.Pass_manager.pass = "simulate" then
          if tm.Pass_manager.cached then incr replayed else incr executed)
      trace;
    Mutex.unlock mu
  in
  let t = Service.create ~on_trace () in
  let line = family_request ~id:"sf" ~verb:"simulate" 0 in
  let k = 6 in
  let spawned =
    List.init k (fun _ -> Domain.spawn (fun () -> result_payload (handle_ok t line)))
  in
  let results = List.map Domain.join spawned in
  Alcotest.(check int) "simulate executed exactly once" 1 !executed;
  Alcotest.(check int) "other requests replayed it" (k - 1) !replayed;
  match results with
  | first :: rest ->
      List.iter (fun r -> Alcotest.(check string) "identical result payloads" first r) rest
  | [] -> assert false

(* The full serve loop over pipes with three workers: every request line
   (including the malformed and unknown-verb ones) gets exactly one
   response, ids are echoed exactly once each, and the writer's seq is
   gap-free no matter the completion order. *)
let test_serve_loop_seq_gap_free () =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let reqs =
    List.init 10 (fun i ->
        let verb = if i mod 2 = 0 then "analyze" else "simulate" in
        family_request ~id:(string_of_int i) ~verb (i mod 5))
    @ [ "{not json"; {|{"verb": "transmogrify", "id": "bad"}|};
        {|{"verb": "shutdown", "id": "end"}|} ]
  in
  let oc_req = Unix.out_channel_of_descr req_w in
  List.iter
    (fun l ->
      Out_channel.output_string oc_req l;
      Out_channel.output_char oc_req '\n')
    reqs;
  Out_channel.close oc_req;
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        let t = Service.create ~serve_jobs:3 ~queue_depth:32 () in
        Service.serve_loop t ic oc;
        Out_channel.close oc;
        In_channel.close ic)
  in
  let ic = Unix.in_channel_of_descr resp_r in
  let rec read acc =
    match In_channel.input_line ic with None -> List.rev acc | Some l -> read (l :: acc)
  in
  let responses = read [] in
  Domain.join server;
  In_channel.close ic;
  Alcotest.(check int) "one response per request" (List.length reqs) (List.length responses);
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok j -> j
        | Error _ -> Alcotest.fail ("response is not JSON: " ^ l))
      responses
  in
  let seqs = List.sort compare (List.map (int_field [ "seq" ]) parsed) in
  Alcotest.(check (list int)) "seq gap-free" (List.init (List.length reqs) Fun.id) seqs;
  let ids =
    List.sort compare
      (List.filter_map
         (fun j -> Option.map (Json.to_string ~minify:true) (field [ "id" ] j))
         parsed)
  in
  let expected_ids =
    List.sort compare ({|"bad"|} :: {|"end"|} :: List.init 10 (fun i -> Printf.sprintf {|"%d"|} i))
  in
  Alcotest.(check (list string)) "every id answered exactly once" expected_ids ids

(* Robustness --------------------------------------------------------- *)

module Cache = Sf_toolchain.Cache
module F = Sf_support.Fingerprint

let diag_codes json =
  match field [ "diagnostics" ] json with
  | Some (Json.List ds) ->
      List.filter_map
        (fun d -> Option.bind (Json.member "code" d) Json.string_opt)
        ds
  | _ -> []

(* An expired deadline fails a cold request with SF0904 before any pass
   executes — but cached replays are free, so the same request over a
   warm cache still answers, and a partially-warm one keeps its cached
   prefix and stops at the first pass that would execute. *)
let test_deadline_sf0904 () =
  let t = Service.create () in
  ignore (handle_ok t (request ~id:"10" ~options:{|{"validate": false}|} ()));
  (* Cold simulate with an already-expired deadline: analyze primed
     load-string and delay-buffers, so the trace replays those two and
     SF0904 fires before partition. *)
  let line =
    Printf.sprintf
      {|{"id": "11", "verb": "simulate", "deadline_ms": 0, "program": %s, "options": {"validate": false}}|}
      program_json
    |> String.split_on_char '\n' |> List.map String.trim |> String.concat " "
  in
  let dead = handle_ok t line in
  Alcotest.(check bool) "expired deadline -> ok:false" false (bool_field [ "ok" ] dead);
  Alcotest.(check (list string)) "SF0904" [ "SF0904" ] (diag_codes dead);
  Alcotest.(check int) "prefix replayed from cache" 2 (int_field [ "passes"; "cached" ] dead);
  Alcotest.(check int) "nothing executed" 0 (int_field [ "passes"; "executed" ] dead);
  (* Fully warm: the same request without the deadline, then again with
     deadline 0 — all passes replay, so the budget is never charged. *)
  ignore
    (handle_ok t
       (Printf.sprintf
          {|{"id": "12", "verb": "simulate", "program": %s, "options": {"validate": false}}|}
          program_json
       |> String.split_on_char '\n' |> List.map String.trim |> String.concat " "));
  let warm = handle_ok t line in
  Alcotest.(check bool) "warm replay beats the deadline" true (bool_field [ "ok" ] warm);
  Alcotest.(check int) "warm executes nothing" 0 (int_field [ "passes"; "executed" ] warm);
  (* A negative deadline_ms disables the server-wide default. *)
  let strict = Service.create ~deadline_ms:1 () in
  let opt_out =
    Printf.sprintf {|{"id": "13", "verb": "analyze", "deadline_ms": -1, "program": %s}|}
      program_json
    |> String.split_on_char '\n' |> List.map String.trim |> String.concat " "
  in
  Alcotest.(check bool) "negative deadline_ms opts out" true
    (bool_field [ "ok" ] (handle_ok strict opt_out))

(* An exception escaping a pool worker's request — injected through the
   chaos hook — answers SF0905 (with a backtrace note) and the loop
   keeps serving. *)
let test_sf0905_crash_isolation () =
  let disturb ~id =
    match id with
    | Some (Json.String "boom") -> failwith "injected"
    | _ -> ()
  in
  let t = Service.create ~serve_jobs:2 ~disturb () in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let reqs =
    [
      family_request ~id:"ok1" ~verb:"analyze" 0;
      family_request ~id:"boom" ~verb:"analyze" 1;
      family_request ~id:"ok2" ~verb:"analyze" 2;
      {|{"verb": "shutdown"}|};
    ]
  in
  let oc_req = Unix.out_channel_of_descr req_w in
  List.iter
    (fun l ->
      Out_channel.output_string oc_req l;
      Out_channel.output_char oc_req '\n')
    reqs;
  Out_channel.close oc_req;
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Service.serve_loop t ic oc;
        Out_channel.close oc;
        In_channel.close ic)
  in
  let ic = Unix.in_channel_of_descr resp_r in
  let rec read acc =
    match In_channel.input_line ic with None -> List.rev acc | Some l -> read (l :: acc)
  in
  let responses = read [] in
  Domain.join server;
  In_channel.close ic;
  Alcotest.(check int) "every request answered" (List.length reqs) (List.length responses);
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok j -> j
        | Error _ -> Alcotest.fail ("response is not JSON: " ^ l))
      responses
  in
  let by_id key =
    match
      List.find_opt
        (fun j ->
          match field [ "id" ] j with
          | Some id -> Json.to_string ~minify:true id = key
          | None -> false)
        parsed
    with
    | Some j -> j
    | None -> Alcotest.fail ("no response for id " ^ key)
  in
  Alcotest.(check bool) "ok1 fine" true (bool_field [ "ok" ] (by_id {|"ok1"|}));
  Alcotest.(check bool) "ok2 fine" true (bool_field [ "ok" ] (by_id {|"ok2"|}));
  let boom = by_id {|"boom"|} in
  Alcotest.(check bool) "boom failed" false (bool_field [ "ok" ] boom);
  Alcotest.(check (list string)) "boom is SF0905" [ "SF0905" ] (diag_codes boom)

let test_health_verb () =
  let t = Service.create ~serve_jobs:3 () in
  let json = handle_ok t {|{"id": "h", "verb": "health"}|} in
  Alcotest.(check bool) "ok" true (bool_field [ "ok" ] json);
  Alcotest.(check int) "in_flight (sync path)" 0 (int_field [ "result"; "in_flight" ] json);
  Alcotest.(check int) "serve_jobs" 3 (int_field [ "result"; "serve_jobs" ] json);
  Alcotest.(check int) "no corruption" 0 (int_field [ "result"; "store_corrupt" ] json);
  match field [ "result"; "uptime_seconds" ] json with
  | Some (Json.Float s) when s >= 0. -> ()
  | _ -> Alcotest.fail "uptime_seconds missing"

(* A waiter bounded by [wait_until] takes over a stalled leader's flight
   instead of blocking forever; the stale leader settling later cannot
   disturb the published entry. *)
let test_flight_takeover () =
  let cache = Cache.create () in
  let key = F.of_string "takeover-key" in
  let leader_flight =
    match Cache.acquire cache key with
    | Cache.Miss f -> f
    | _ -> Alcotest.fail "leader must miss"
  in
  (* The leader never settles (simulating a wedged execution). A bounded
     waiter must take the flight over at its deadline and lead. *)
  let entry = { Cache.bindings = []; diags = [] } in
  let waiter =
    Domain.spawn (fun () ->
        let wait_until = Sf_support.Util.monotime () +. 0.02 in
        match Cache.acquire ~wait_until cache key with
        | Cache.Miss f ->
            Cache.fulfill cache f entry;
            `Took_over
        | Cache.Hit _ -> `Hit
        | Cache.Joined _ -> `Joined)
  in
  Alcotest.(check bool) "waiter took the flight over" true (Domain.join waiter = `Took_over);
  Alcotest.(check int) "takeover counted" 1 (Cache.stats cache).Cache.takeovers;
  (* The entry is published despite the wedged leader. *)
  (match Cache.acquire cache key with
  | Cache.Hit _ -> ()
  | _ -> Alcotest.fail "takeover result must be published");
  (* The stale leader finally settles; the published entry survives. *)
  Cache.abandon cache leader_flight;
  match Cache.acquire cache key with
  | Cache.Hit _ -> ()
  | _ -> Alcotest.fail "stale leader's abandon must not evict the entry"

(* The program slot holds a [Program.checked] and binds on disk as
   "program-checked". A blob an older build stored under the same key
   with the old binding ("program", a marshalled [Program.t]) counts as
   stale and is never read as a check: the pass executes, and the blob
   it writes back replays in a fresh process. *)
let test_old_program_blob_is_stale () =
  let module Ctx = Sf_toolchain.Ctx in
  let p = Fixtures.diamond () in
  let pass = Sf_toolchain.Passes.use_program p in
  let key =
    Cache.key ~pass_name:pass.Pass_manager.name ~options_fp:(pass.Pass_manager.fingerprint ())
      ~reads:pass.Pass_manager.reads (Ctx.create ())
  in
  let dir = Test_store.temp_dir () in
  let store = Sf_support.Store.open_ dir in
  let old_blob =
    Marshal.to_string ([ ("program", Marshal.to_string p []) ], ([] : Sf_support.Diag.t list)) []
  in
  Alcotest.(check bool) "old blob stored" true
    (Sf_support.Store.put store ~key:(F.to_hex key) old_blob);
  let run cache =
    match Pass_manager.run ~cache [ pass ] (Ctx.create ()) with
    | Ok (ctx, [ t ]) -> (ctx, t.Pass_manager.cached)
    | Ok _ | Error _ -> Alcotest.fail "use-program failed"
  in
  let cache = Cache.with_store (Cache.create ()) store in
  let ctx, cached = run cache in
  Alcotest.(check bool) "old blob not replayed" false cached;
  Alcotest.(check int) "old blob counted stale" 1 (Cache.stats cache).Cache.stale;
  Alcotest.(check bool) "the slot holds the check of the program" true
    (Sf_ir.Program.Checked.program (Option.get ctx.Ctx.program) == p);
  let fresh = Cache.with_store (Cache.create ()) store in
  let ctx', cached = run fresh in
  Alcotest.(check bool) "new blob replayed" true cached;
  let replayed = Sf_ir.Program.Checked.program (Option.get ctx'.Ctx.program) in
  Alcotest.(check string) "replayed program"
    (F.to_hex (Sf_ir.Program.fingerprint p))
    (F.to_hex (Sf_ir.Program.fingerprint replayed));
  Cache.clear fresh

let suite =
  [
    Alcotest.test_case "analyze roundtrip" `Quick test_analyze_roundtrip;
    Alcotest.test_case "repeat request fully cached" `Quick test_repeat_request_fully_cached;
    Alcotest.test_case "formatting does not defeat the cache" `Quick
      test_formatting_does_not_defeat_cache;
    Alcotest.test_case "option change misses" `Quick test_option_change_misses;
    Alcotest.test_case "bad requests keep the loop alive" `Quick
      test_bad_requests_keep_loop_alive;
    Alcotest.test_case "evict and cache-stats" `Quick test_evict_and_stats;
    Alcotest.test_case "shutdown stops the loop" `Quick test_shutdown_stops;
    Alcotest.test_case "concurrent handle matches serial run" `Quick
      test_concurrent_handle_matches_serial;
    Alcotest.test_case "single-flight dedups identical requests" `Quick
      test_single_flight_dedup;
    Alcotest.test_case "serve loop: gap-free seq, every request answered" `Quick
      test_serve_loop_seq_gap_free;
    Alcotest.test_case "deadline: SF0904, cached prefix survives" `Quick
      test_deadline_sf0904;
    Alcotest.test_case "crash isolation: SF0905, loop survives" `Quick
      test_sf0905_crash_isolation;
    Alcotest.test_case "health verb" `Quick test_health_verb;
    Alcotest.test_case "a program blob of the old slot name is stale" `Quick
      test_old_program_blob_is_stale;
    Alcotest.test_case "flight takeover unparks bounded waiters" `Quick
      test_flight_takeover;
  ]
