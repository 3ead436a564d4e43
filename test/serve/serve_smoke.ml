(* End-to-end smoke for the serve loop, wired into `dune build
   @serve-smoke` (and through it into `dune runtest`). For every seed
   example program and every compile verb (analyze, simulate, codegen,
   with fusion on): the request must succeed, and repeating it verbatim
   must execute zero passes — every pass replayed from the session
   cache — and answer a byte-identical result. This is the service-level
   form of the per-pass claims test/test_service.ml pins on one
   fixture. *)
open Stencilflow

let examples_dir =
  List.find Sys.file_exists
    [ "examples/programs"; "../examples/programs"; "../../examples/programs" ]

let check name ok = if not ok then failwith name

let int_field path json =
  let rec go path json =
    match path with
    | [] -> Json.int_opt json
    | k :: rest -> ( match Json.member k json with Some v -> go rest v | None -> None)
  in
  match go path json with
  | Some n -> n
  | None -> failwith ("missing field " ^ String.concat "." path)

let request ?(verb = "analyze") ?(options = "{}") file =
  Printf.sprintf {|{"verb": %S, "program_file": %S, "options": %s}|} verb
    (Filename.concat examples_dir file) options

let verbs = [ "analyze"; "simulate"; "codegen" ]

let handle t line =
  match Service.handle t line with
  | resp, `Continue -> (
      match Json.parse resp with
      | Ok json -> json
      | Error _ -> failwith ("response is not JSON: " ^ resp))
  | _, `Stop -> failwith "unexpected stop"

let result json =
  match Json.member "result" json with
  | Some r -> Json.to_string ~minify:true r
  | None -> failwith "missing field result"

let run_example t file =
  List.iter
    (fun verb ->
      let line = request ~verb ~options:{|{"fuse": true}|} file in
      let name = Printf.sprintf "%s %s" file verb in
      let cold = handle t line in
      check (name ^ ": cold ok") (Json.member "ok" cold = Some (Json.Bool true));
      check (name ^ ": cold executes") (int_field [ "passes"; "executed" ] cold > 0);
      let warm = handle t line in
      check (name ^ ": warm ok") (Json.member "ok" warm = Some (Json.Bool true));
      check (name ^ ": warm executes nothing") (int_field [ "passes"; "executed" ] warm = 0);
      check
        (name ^ ": warm replays every pass")
        (int_field [ "passes"; "cached" ] warm
        = int_field [ "passes"; "executed" ] cold + int_field [ "passes"; "cached" ] cold);
      check (name ^ ": warm result identical") (result warm = result cold);
      Printf.printf "%-36s %-8s ok: %d pass(es) cold, 0 warm, same result\n%!" file verb
        (int_field [ "passes"; "executed" ] cold))
    verbs

(* The same examples through a real concurrent server: a four-worker
   serve loop over pipes, two identical analyze requests per example so
   the single-flight cache gets concurrent identical keys. Every request
   must be answered ok, exactly once, with a gap-free seq. *)
let concurrent_leg examples =
  let t = Service.create ~serve_jobs:4 ~queue_depth:64 () in
  let reqs =
    List.concat_map (fun f -> [ request f; request f ]) examples
    @ [ {|{"verb": "shutdown"}|} ]
  in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let ocq = Unix.out_channel_of_descr req_w in
  List.iter
    (fun l ->
      Out_channel.output_string ocq l;
      Out_channel.output_char ocq '\n')
    reqs;
  Out_channel.close ocq;
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
  check "concurrent: one response per request" (List.length responses = List.length reqs);
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with Ok j -> j | Error _ -> failwith ("bad response: " ^ l))
      responses
  in
  List.iter
    (fun j -> check "concurrent: every response ok" (Json.member "ok" j = Some (Json.Bool true)))
    parsed;
  let seqs = List.sort compare (List.map (int_field [ "seq" ]) parsed) in
  check "concurrent: seq gap-free" (seqs = List.init (List.length reqs) Fun.id);
  let stats = Cache.stats (Service.cache t) in
  check "concurrent: no stale entries" (stats.Cache.stale = 0);
  Printf.printf "serve smoke (4 workers): %d request(s) answered, seq gap-free\n%!"
    (List.length reqs)

let () =
  let t = Service.create () in
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if examples = [] then failwith ("no example programs under " ^ examples_dir);
  List.iter (run_example t) examples;
  let stats = Cache.stats (Service.cache t) in
  check "cache saw hits" (stats.Cache.hits > 0);
  check "no stale entries" (stats.Cache.stale = 0);
  Printf.printf "serve smoke: %d example(s), %d cache hit(s), %d miss(es)\n%!"
    (List.length examples) stats.Cache.hits stats.Cache.misses;
  concurrent_leg examples
