(* serve-dse: a design-space sweep against the real `stencilflow serve`
   binary, run as a child process with two workers over a fresh on-disk
   cache directory.

   The load is a closed loop with two requests outstanding: a DSE driver
   waits for each result before it asks for the next. The run sends
   rounds to one server until its time is up, each followed by an evict,
   so every round starts with an empty cache. Every round sends the same
   multiset of requests (drawn once, with a fixed generator, over the
   example programs: analyze 40%, simulate 40%, codegen 20%, with fuse,
   optimize, width 1/2/4, input seed 1/2/3 and validation 25%) in an
   order the run's seed and the round number shuffle. So each round
   executes the same passes and only their interleaving with cache hits
   changes with the seed. *)

open Stencilflow
open Harness

let programs =
  [
    "acoustic_wave";
    "diamond";
    "hdiff_2dev";
    "horizontal_diffusion_small";
    "jacobi2d_8stage";
    "laplace2d";
    "shallow_water";
    "smoothing3d";
  ]

(* The heavy programs are left out of --quick streams. *)
let quick_programs = [ "acoustic_wave"; "diamond"; "laplace2d"; "shallow_water"; "smoothing3d" ]

(* A round sends [round_requests] requests over [distinct_requests]
   distinct ones: each distinct request once, the rest repeats, so about
   a third of a round executes passes and the rest replays the cache. *)
let round_requests ~quick = if quick then 24 else 100
let distinct_requests ~quick = if quick then 12 else 30

(* Requests without their ids; equal strings are the same request. *)
let draw_stream ~quick ~examples =
  let rng = Random.State.make [| 0x5f10 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let pool = if quick then quick_programs else programs in
  let distinct =
    List.init (distinct_requests ~quick) (fun _ ->
        let program = pick pool in
        let u = Random.State.float rng 1. in
        let verb = if u < 0.4 then "analyze" else if u < 0.8 then "simulate" else "codegen" in
        let flag () = Json.Bool (Random.State.bool rng) in
        let fuse = flag () in
        let optimize = flag () in
        let width = Json.Int (pick [ 1; 2; 4 ]) in
        let sim =
          if verb = "simulate" then
            [
              ("seed", Json.Int (pick [ 1; 2; 3 ]));
              ("validate", Json.Bool (Random.State.float rng 1. < 0.25));
            ]
          else []
        in
        Json.to_string ~minify:true
          (Json.Obj
             [
               ("verb", Json.String verb);
               ("program_file", Json.String (Filename.concat examples (program ^ ".json")));
               ( "options",
                 Json.Obj ([ ("fuse", fuse); ("optimize", optimize); ("width", width) ] @ sim) );
             ]))
  in
  distinct
  @ List.init (round_requests ~quick - distinct_requests ~quick) (fun _ -> pick distinct)

let shuffle ~seed ~round stream =
  let a = Array.of_list stream in
  let rng = Random.State.make [| seed; round |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* "{...}" with an id field prepended. *)
let with_id id body = Printf.sprintf {|{"id":%d,%s|} id (String.sub body 1 (String.length body - 1))

(* The serve child ------------------------------------------------------- *)

type child = { pid : int; oc : out_channel; ic : in_channel; dir : string }

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch_root = ".flowbench"

let spawn ~exe ~tag =
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  let dir = Filename.concat scratch_root (Printf.sprintf "serve-%d-%s" (Unix.getpid ()) tag) in
  remove_tree dir;
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--serve-jobs"; "2"; "--cache-dir"; dir |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; oc = Unix.out_channel_of_descr in_w; ic = Unix.in_channel_of_descr out_r; dir }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c =
  match In_channel.input_line c.ic with
  | Some line -> line
  | None -> failwith "serve child closed its output"

(* Control requests are answered in order once the stream has drained. *)
let control c verb =
  send c (Printf.sprintf {|{"id":%S,"verb":%S}|} verb verb);
  Json.of_string (recv c)

let stop c =
  ignore (control c "shutdown");
  close_out_noerr c.oc;
  let _, status = Unix.waitpid [] c.pid in
  close_in_noerr c.ic;
  remove_tree c.dir;
  (try Sys.rmdir scratch_root with Sys_error _ -> ());
  match status with
  | Unix.WEXITED 0 -> None
  | _ -> Some "serve child did not exit cleanly"

(* Spawn a server and wait for its first answer. *)
let start ~exe ~tag =
  timed (fun () ->
      let c = spawn ~exe ~tag in
      ignore (control c "health");
      c)

(* One answered request. *)
type answer = {
  latency : float;  (* send to response, seconds *)
  server_s : float;  (* the response's timing.seconds *)
  queue_s : float;
  exec_s : float;
  executed : int;  (* passes executed rather than replayed *)
}

let num path json =
  let rec go j = function
    | [] -> Json.float_opt j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
  in
  Option.value ~default:0. (go json path)

(* Check one response against the gates: ok, answered once, and a result
   byte-identical to every earlier answer to the same request in this
   round ([results] maps request text to its first result). *)
let check gates results ~body ~answered ~id json =
  let ok = match Json.member "ok" json with Some (Json.Bool b) -> b | _ -> false in
  if answered.(id) then fail gates (Printf.sprintf "request %d answered twice" id)
  else if not ok then fail gates (Printf.sprintf "request %d failed: %s" id body)
  else begin
    let result =
      Json.to_string ~minify:true (Option.value ~default:Json.Null (Json.member "result" json))
    in
    match Hashtbl.find_opt results body with
    | Some first when first <> result ->
        fail gates
          (Printf.sprintf "request %d (%s): result %s differs from the earlier %s" id body result
             first)
    | Some _ -> ()
    | None -> Hashtbl.add results body result
  end;
  answered.(id) <- true

let outstanding = 2

(* Send a round's stream with [outstanding] requests in flight. *)
let drive gates results c stream =
  let n = Array.length stream in
  let sent_at = Array.make n 0. in
  let answered = Array.make n false in
  let answers = ref [] in
  let next = ref 0 in
  let issue () =
    if !next < n then begin
      let id = !next in
      incr next;
      attempt gates;
      sent_at.(id) <- now ();
      send c (with_id id stream.(id))
    end
  in
  for _ = 1 to outstanding do
    issue ()
  done;
  while !next > List.length !answers do
    let line = recv c in
    let t = now () in
    let json = Json.of_string line in
    match Option.bind (Json.member "id" json) Json.int_opt with
    | Some id when id >= 0 && id < n ->
        check gates results ~body:stream.(id) ~answered ~id json;
        answers :=
          {
            latency = t -. sent_at.(id);
            server_s = num [ "timing"; "seconds" ] json;
            queue_s = num [ "timing"; "queue_seconds" ] json;
            exec_s = num [ "timing"; "exec_seconds" ] json;
            executed = int_of_float (num [ "passes"; "executed" ] json);
          }
          :: !answers;
        issue ()
    | _ -> failwith ("unexpected serve response: " ^ line)
  done;
  Array.iteri (fun id a -> if not a then fail gates (Printf.sprintf "request %d unanswered" id)) answered;
  List.rev !answers

type round = {
  answers : answer list;
  loop_s : float;
  cache : Json.t;  (* the round's cache-stats *)
  results : (string, string) Hashtbl.t;  (* request text -> result *)
}

(* One round on a running server: the multiset in this round's order,
   then the cache counters, then an evict (which empties the cache and
   resets its counters), so every round starts cold. *)
let run_round gates c ~seed ~quick ~examples ~round =
  let stream = shuffle ~seed ~round (draw_stream ~quick ~examples) in
  let results = Hashtbl.create 64 in
  let answers, loop_s = timed (fun () -> drive gates results c stream) in
  let cache = Option.value ~default:Json.Null (Json.member "result" (control c "cache-stats")) in
  ignore (control c "evict");
  { answers; loop_s; cache; results }

(* Rounds until [seconds] are spent, never starting one that would not
   finish in time (after the first). *)
let rounds gates c ~seed ~quick ~examples ~seconds =
  let start_t = now () in
  let rec go acc round =
    let spent = now () -. start_t in
    let typical = median_or_zero (List.map (fun r -> r.loop_s) acc) in
    if acc <> [] && spent +. typical > seconds then List.rev acc
    else go (run_round gates c ~seed ~quick ~examples ~round :: acc) (round + 1)
  in
  go [] 0

(* Server start-ups for setup_s, each shut down again: (seconds at the
   reference host speed, kernel seconds). Starting a server is CPU work
   on one core, which the kernel run before it tracks. *)
let setups gates ~exe ~quick =
  List.init (if quick then 1 else 9) (fun i ->
      let calib = Hostspeed.measure () in
      let c, dt = start ~exe ~tag:(Printf.sprintf "setup%d" i) in
      Option.iter (fail gates) (stop c);
      (dt *. Hostspeed.factor calib, calib))

(* Requests per second a closed loop with [outstanding] requests in
   flight sustains, by Little's law: outstanding / mean latency. Unlike
   requests over the round's wall time, it does not depend on whether a
   long request happens to finish the round with one worker idle. *)
let throughput r =
  let latencies = List.map (fun a -> a.latency) r.answers in
  ratio (float_of_int (outstanding * List.length latencies)) (Util.sum_float latencies)

(* End-to-end run: one server, rounds for [seconds]; throughput is the
   median over rounds, the peak resident set the server's. Throughput is
   raw: the work runs in the server on both cores, where a kernel timed
   in this process does not track the host's speed (see Hostspeed). *)
let run_untraced ~quick ~seed ~seconds ~examples ~exe =
  let gates = new_gates () in
  let setup = setups gates ~exe ~quick in
  let c, _ = start ~exe ~tag:"main" in
  let rs = rounds gates c ~seed ~quick ~examples ~seconds in
  let peak = peak_rss_mb (string_of_int c.pid) in
  Option.iter (fail gates) (stop c);
  outcome ~calibration_s:(Stats.median (List.map snd setup)) gates
    [
      metric "setup_s" "s" (Stats.median (List.map fst setup));
      metric "ops_per_s" "1/s" (Stats.median (List.map throughput rs));
      metric "peak_rss_mb" "MB" peak;
    ]

(* Traced run ----------------------------------------------------------- *)

let load file =
  match Program_json.of_file file with
  | Ok p -> p
  | Error ds -> failwith (String.concat "; " (List.map Diag.to_string ds))

let pass_key name =
  if String.length name > 10 && String.sub name 0 10 = "vectorize-" then "vectorize" else name

(* Replay one round's stream in-process through Service.handle. Each
   request is a span of [tracer]; when [traced], the pass manager's
   per-pass timings become its child spans, laid back to back ending when
   the pass trace is delivered. *)
let replay tracer stream ~traced =
  let dir = Filename.concat scratch_root (Printf.sprintf "replay-%d" (Unix.getpid ())) in
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  remove_tree dir;
  let executed = Hashtbl.create 16 in
  let on_trace ~verb:_ (trace : Pass_manager.trace) =
    let stop = ref (Util.monotime_ns ()) in
    List.iter
      (fun (t : Pass_manager.timing) ->
        let key = pass_key t.Pass_manager.pass in
        if not t.Pass_manager.cached then
          Hashtbl.replace executed key (1 + Option.value ~default:0 (Hashtbl.find_opt executed key));
        let start = Int64.sub !stop (Int64.of_float (t.Pass_manager.seconds *. 1e9)) in
        Spans.record tracer ~name:("pass." ^ key) ~start_ns:start ~stop_ns:!stop;
        stop := start)
      (List.rev trace)
  in
  let service =
    if traced then Service.create ~store_dir:dir ~on_trace () else Service.create ~store_dir:dir ()
  in
  let (), gc =
    with_gc (fun () ->
        Array.iteri
          (fun i body ->
            Spans.with_span ~request:i tracer "toolchain.service.request" (fun () ->
                ignore (Service.handle service (with_id i body))))
          stream)
  in
  remove_tree dir;
  (try Sys.rmdir scratch_root with Sys_error _ -> ());
  (executed, gc)

let run_traced ~quick ~seed ~seconds ~examples ~exe =
  let gates = new_gates () in
  (* Service and cache layers, from rounds on a real server. *)
  let c, _ = start ~exe ~tag:"main" in
  let rs = rounds gates c ~seed ~quick ~examples ~seconds:(0.3 *. seconds) in
  Option.iter (fail gates) (stop c);
  let answers = List.concat_map (fun r -> r.answers) rs in
  let sum f = Util.sum_float (List.map f answers) in
  let latency_sum = sum (fun a -> a.latency) in
  let p l q = Stats.percentile l q in
  let cold = List.filter_map (fun a -> if a.executed > 0 then Some a.latency else None) answers in
  let warm = List.filter_map (fun a -> if a.executed = 0 then Some a.latency else None) answers in
  let execs = List.map (fun a -> a.exec_s) answers in
  let stat k = Stats.median (List.map (fun r -> num [ k ] r.cache) rs) in
  (* Pass-level attribution, from in-process replays of the same stream. *)
  let stream = shuffle ~seed ~round:0 (draw_stream ~quick ~examples) in
  let off = Spans.create ~enabled:false in
  let untraced () = snd (timed (fun () -> replay off stream ~traced:false)) in
  (* A warm-up replay fills this process's interning and digest tables;
     then untraced replays on both sides of the traced one, so neither
     warm-up nor drift in host speed reads as tracing overhead. *)
  ignore (untraced ());
  let before = untraced () in
  let tracer = Spans.create ~enabled:true in
  let (executed, gc), traced_s = timed (fun () -> replay tracer stream ~traced:true) in
  let untraced_s = (before +. untraced ()) /. 2. in
  let wall = Spans.wall tracer in
  let self = Spans.self_by_name tracer in
  let requests = float_of_int (Array.length stream) in
  (* Front-end costs per example program, outside the span tree. *)
  let files = List.map (fun p -> Filename.concat examples (p ^ ".json")) programs in
  let reps = if quick then 1 else 5 in
  let corpus = List.map load files in
  let per_program f = List.map (fun p -> median_time ~reps (fun () -> ignore (f p))) corpus in
  let parse = List.map (fun file -> median_time ~reps (fun () -> ignore (load file))) files in
  let bytes =
    Util.sum_float
      (List.map (fun f -> Int64.to_float (In_channel.with_open_bin f In_channel.length)) files)
  in
  let fused = List.map (fun p -> Opt.optimize (fst (Fusion.fuse_all p))) corpus in
  let eval_ns = eval_ns_per_cell ~cells:(if quick then 10_000 else 2_000_000) (widest_body fused) in
  (* Modelled results of the round's distinct simulate requests. *)
  let sims =
    Hashtbl.fold
      (fun _ result acc ->
        match Json.member "simulation" (Json.of_string result) with
        | Some s -> (num [ "cycles" ] s, num [ "predicted_cycles" ] s) :: acc
        | None -> acc)
      (List.hd rs).results []
  in
  let cycles = Util.sum_float (List.map fst sims) in
  let eq1 = median_or_zero (List.map (fun (c, pr) -> pct (Float.abs (c -. pr)) pr) sims) in
  outcome ~spans:tracer gates
    ([
       metric "bench.trace_overhead" "ratio" (ratio traced_s untraced_s);
       metric "bench.traced_wall_s" "s" wall;
       metric "bench.spans" "count" (float_of_int (Spans.count tracer));
       metric "op_p50_ms" "ms" (ms (p (List.map (fun a -> a.latency) answers) 50.));
       metric "op_p90_ms" "ms" (ms (p (List.map (fun a -> a.latency) answers) 90.));
       metric "ir.program.fingerprint_ms" "ms" (ms (Stats.median (per_program Program.fingerprint)));
       metric "analysis.delay_buffer.analyze_ms" "ms"
         (ms (Stats.median (per_program (fun p -> Delay_buffer.analyze p))));
       metric "reference.compile.eval_ns_per_cell" "ns" eval_ns;
       metric "frontend.program_json.parse_mb_per_s" "MB/s" (bytes /. 1e6 /. Util.sum_float parse);
     ]
    @ layer_shares tracer
    @ [
        metric "sim.sim_cycles" "cycles" cycles;
        metric "analysis.runtime_model.eq1_error_pct" "%" eq1;
        metric "ir.op_count.work_flops_per_cell" "count"
          (float_of_int
             (Util.sum_int
                (List.map (fun p -> (Op_count.of_program p).Op_count.work_flops_per_cell) corpus)));
        metric "runtime.gc.minor_collections_per_op" "count"
          (float_of_int gc.minor_collections /. requests);
        metric "runtime.gc.major_collections_per_op" "count"
          (float_of_int gc.major_collections /. requests);
        metric "toolchain.service.queue_pct" "%" (pct (sum (fun a -> a.queue_s)) latency_sum);
        metric "toolchain.service.exec_pct" "%" (pct (sum (fun a -> a.exec_s)) latency_sum);
        metric "toolchain.service.overhead_pct" "%"
          (pct (sum (fun a -> a.latency -. a.server_s)) latency_sum);
        metric "toolchain.service.cold_over_warm" "ratio" (ratio (p cold 50.) (p warm 50.));
        metric "toolchain.service.exec_p90_over_p50" "ratio" (ratio (p execs 90.) (p execs 50.));
        metric "toolchain.cache.hit_ratio" "ratio"
          (ratio (stat "hits") (stat "hits" +. stat "misses" +. stat "joined"));
        metric "toolchain.cache.joined" "count" (stat "joined");
        metric "toolchain.cache.evictions" "count" (stat "evictions");
        metric "toolchain.cache.stale" "count" (stat "stale");
        metric "toolchain.cache.executed_passes" "count"
          (Stats.median
             (List.map
                (fun r -> float_of_int (Util.sum_int (List.map (fun a -> a.executed) r.answers)))
                rs));
      ]
    @ List.concat_map
        (fun pass ->
          let self_s = Option.value ~default:0. (Hashtbl.find_opt self ("pass." ^ pass)) in
          [
            metric ("toolchain.pass_manager." ^ pass ^ ".self_pct") "%" (pct self_s wall);
            metric ("toolchain.pass_manager." ^ pass ^ ".executed") "count"
              (float_of_int (Option.value ~default:0 (Hashtbl.find_opt executed pass)));
          ])
        pass_names)
