(* Harness spans: the benchmark wraps each call into a library layer in a
   named span (name, start, end, parent, request id), keeps the spans in
   memory and derives per-layer self time from them. Spans are recorded
   by the benchmark's own code around public library calls, so a
   disabled recorder costs one branch per call and the untraced
   end-to-end runs measure the library alone. *)

open Stencilflow

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  request : int;  (* the operation the span belongs to, -1 for none *)
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable request : int;
}

let create ~enabled = { enabled; spans = []; next_id = 0; stack = []; request = -1 }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current t = match t.stack with id :: _ -> id | [] -> -1

(* Run [f] inside a span named [name], a child of the innermost open
   span. [request] tags the span and every span opened inside it. *)
let with_span ?request t name f =
  if not t.enabled then f ()
  else begin
    let id = fresh_id t in
    let parent = current t in
    let saved_request = t.request in
    (match request with Some r -> t.request <- r | None -> ());
    let req = t.request in
    t.stack <- id :: t.stack;
    let start_ns = Util.monotime_ns () in
    let finish () =
      let stop_ns = Util.monotime_ns () in
      t.stack <- List.tl t.stack;
      t.request <- saved_request;
      t.spans <- { id; name; parent; request = req; start_ns; stop_ns } :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Record an already-finished child span of the innermost open span, for
   layers that report their own durations after the fact (the pass
   manager's per-pass timings). *)
let record t ~name ~start_ns ~stop_ns =
  if t.enabled then
    t.spans <-
      { id = fresh_id t; name; parent = current t; request = t.request; start_ns; stop_ns }
      :: t.spans

let spans t = List.rev t.spans
let count t = List.length t.spans
let seconds s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* Total self time per span name. A span's self time is its duration
   minus the part of its interval its children cover (children may
   overlap each other, so their union is subtracted, clipped to the
   parent). *)
let self_by_name t =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) t.spans;
  let self_ns s =
    let kids =
      List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) (Hashtbl.find_all children s.id)
    in
    let covered, _ =
      List.fold_left
        (fun (acc, reach) k ->
          let lo = max (max k.start_ns s.start_ns) reach in
          let hi = min k.stop_ns s.stop_ns in
          if hi > lo then (Int64.add acc (Int64.sub hi lo), hi) else (acc, max reach hi))
        (0L, s.start_ns) kids
    in
    Int64.sub (Int64.sub s.stop_ns s.start_ns) covered
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. (Int64.to_float (self_ns s) /. 1e9)))
    t.spans;
  tbl

(* Total duration of the root spans: the traced run's wall time. *)
let wall t =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. seconds s else acc)
    0. (spans t)

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (seconds s) else None) (spans t)

(* Chrome trace_event JSON: one complete ("X") event per span, in
   microseconds from the first span, with parent and request ids in
   [args]. Loads in chrome://tracing and Perfetto. *)
let to_chrome_json t =
  let all = spans t in
  let origin = List.fold_left (fun acc s -> min acc s.start_ns) Int64.max_int all in
  let us ns = Int64.to_float (Int64.sub ns origin) /. 1e3 in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("cat", Json.String "flowbench");
                   ("ph", Json.String "X");
                   ("ts", Json.Float (us s.start_ns));
                   ("dur", Json.Float (us s.stop_ns -. us s.start_ns));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Int s.id);
                         ("parent", Json.Int s.parent);
                         ("request", Json.Int s.request);
                       ] );
                 ])
             all) );
      ("displayTimeUnit", Json.String "ms");
    ]
