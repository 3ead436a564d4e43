module Json = Sf_support.Json

type stall_cause =
  | Input_starved
  | Output_full
  | Bandwidth_denied
  | Link_latency
  | Pipeline_drain

let cause_name = function
  | Input_starved -> "input-starved"
  | Output_full -> "output-full"
  | Bandwidth_denied -> "bandwidth-denied"
  | Link_latency -> "link-latency"
  | Pipeline_drain -> "pipeline-drain"

let all_causes = [ Input_starved; Output_full; Bandwidth_denied; Link_latency; Pipeline_drain ]

let cause_index = function
  | Input_starved -> 0
  | Output_full -> 1
  | Bandwidth_denied -> 2
  | Link_latency -> 3
  | Pipeline_drain -> 4

let n_causes = List.length all_causes

type kind = Unit | Reader | Writer | Link

let kind_name = function
  | Unit -> "unit"
  | Reader -> "reader"
  | Writer -> "writer"
  | Link -> "link"

type span = {
  track : string;
  label : string;
  start_cycle : int;
  end_cycle : int;
  blocking : string option;
}

(* A probe tracks its component's per-cause counters, the channels it
   blamed, and one open stall span at a time; consecutive stalls with
   the same (cause, channel) extend the open span. *)
type probe = {
  pname : string;
  id : int;  (* registration order: orders spans of components that share a name *)
  by_cause : int array;
  blamed : (string, int) Hashtbl.t;
  mutable busy_cycles : int;
  mutable first_active : int;  (* first busy cycle, -1 before any *)
  mutable last_active : int;
  (* Open stall span: cause index, blamed channel, start, last cycle. *)
  mutable open_cause : int;  (* -1 = no open span *)
  mutable open_channel : string;
  mutable open_start : int;
  mutable open_last : int;
  spans : (int * span) list ref;  (* by probe id, shared with the collector, reversed *)
}

type t = { enabled : bool; mutable probes : probe list; closed_spans : (int * span) list ref }

let create ~enabled () = { enabled; probes = []; closed_spans = ref [] }

let probe t ~kind:_ ~name =
  if not t.enabled then None
  else begin
    let p =
      {
        pname = name;
        id = List.length t.probes;
        by_cause = Array.make n_causes 0;
        blamed = Hashtbl.create 4;
        busy_cycles = 0;
        first_active = -1;
        last_active = -1;
        open_cause = -1;
        open_channel = "";
        open_start = 0;
        open_last = 0;
        spans = t.closed_spans;
      }
    in
    t.probes <- p :: t.probes;
    Some p
  end

let close_span p =
  if p.open_cause >= 0 then begin
    let label = "stall:" ^ cause_name (List.nth all_causes p.open_cause) in
    let blocking = if p.open_channel = "" then None else Some p.open_channel in
    p.spans :=
      ( p.id,
        {
          track = p.pname;
          label;
          start_cycle = p.open_start;
          end_cycle = p.open_last + 1;
          blocking;
        } )
      :: !(p.spans);
    p.open_cause <- -1
  end

(* [cycles] stalls from [now] with cause index [ci]. *)
let record p ~now ~cycles ci channel =
  p.by_cause.(ci) <- p.by_cause.(ci) + cycles;
  if channel <> "" then
    Hashtbl.replace p.blamed channel
      (cycles + Option.value ~default:0 (Hashtbl.find_opt p.blamed channel));
  if p.open_cause = ci && String.equal p.open_channel channel && p.open_last = now - 1 then
    p.open_last <- now + cycles - 1
  else begin
    close_span p;
    p.open_cause <- ci;
    p.open_channel <- channel;
    p.open_start <- now;
    p.open_last <- now + cycles - 1
  end

let stall p ~now ?(channel = "") cause = record p ~now ~cycles:1 (cause_index cause) channel

let sleep p ~now ~cycles =
  if p.open_cause >= 0 && p.open_last = now - 1 then
    record p ~now ~cycles p.open_cause p.open_channel

let busy p ~now ~cycles =
  close_span p;
  p.busy_cycles <- p.busy_cycles + cycles;
  if p.first_active < 0 then p.first_active <- now;
  p.last_active <- now + cycles - 1

type counters = {
  name : string;
  kind : kind;
  busy_cycles : int;
  stalled_cycles : int;
  stalls_by_cause : (stall_cause * int) list;
  blocked_on : (string * int) list;
  pushes : int;
  pops : int;
  bytes : int;
}

type channel_info = {
  channel : string;
  capacity : int;
  high_water : int;
  total_pushed : int;
  total_popped : int;
}

type report = {
  enabled : bool;
  cycles : int;
  components : counters list;
  channels : channel_info list;
  samples : (int * (string * int) list) list;
  spans : span list;
}

let probe_total p = Array.fold_left ( + ) 0 p.by_cause

let counters_row ?probe ?stalled ?(pushes = 0) ?(pops = 0) ?(bytes = 0) ~name ~kind () =
  let busy_cycles, by_cause, blocked_on =
    match probe with
    | None -> (0, [], [])
    | Some p ->
        let by_cause =
          List.filter_map
            (fun c ->
              let n = p.by_cause.(cause_index c) in
              if n > 0 then Some (c, n) else None)
            all_causes
        in
        let blamed = Hashtbl.fold (fun ch n acc -> (ch, n) :: acc) p.blamed [] in
        let blamed =
          List.sort (fun (c1, n1) (c2, n2) -> if n1 <> n2 then compare n2 n1 else compare c1 c2)
            blamed
        in
        (p.busy_cycles, by_cause, blamed)
  in
  let stalled =
    match stalled with
    | Some s -> s
    | None -> ( match probe with None -> 0 | Some p -> probe_total p)
  in
  {
    name;
    kind;
    busy_cycles;
    stalled_cycles = stalled;
    stalls_by_cause = by_cause;
    blocked_on;
    pushes;
    pops;
    bytes;
  }

let freeze t ~cycles ~components ~channels ~samples =
  List.iter close_span t.probes;
  (* Emit each component's active phase as a span (begin/end events of
     its streaming lifetime), then sort everything chronologically. *)
  List.iter
    (fun p ->
      if p.first_active >= 0 then
        t.closed_spans :=
          ( p.id,
            {
              track = p.pname;
              label = "active";
              start_cycle = p.first_active;
              end_cycle = p.last_active + 1;
              blocking = None;
            } )
          :: !(t.closed_spans))
    t.probes;
  (* Components that share a name share a track; their spans are then
     ordered by component, not by when the schedule closed them. *)
  let spans =
    List.map snd
      (List.stable_sort
         (fun (i, a) (j, b) ->
           if a.start_cycle <> b.start_cycle then compare a.start_cycle b.start_cycle
           else if a.track <> b.track then compare a.track b.track
           else compare i j)
         (List.rev !(t.closed_spans)))
  in
  { enabled = t.enabled; cycles; components; channels; samples; spans }

(* ------------------------------------------------------------------ *)
(* Derived views.                                                      *)
(* ------------------------------------------------------------------ *)

let unit_stalls r =
  List.filter_map
    (fun c -> if c.kind = Unit then Some (c.name, c.stalled_cycles) else None)
    r.components

let channel_high_water r =
  List.map (fun (c : channel_info) -> (c.channel, c.high_water, c.capacity)) r.channels

let total_blocked r = List.fold_left (fun acc c -> acc + c.stalled_cycles) 0 r.components

let attribution r =
  List.filter (fun c -> c.stalled_cycles > 0) r.components
  |> List.stable_sort (fun a b -> compare b.stalled_cycles a.stalled_cycles)

let top_blocker c = match c.blocked_on with [] -> None | (ch, n) :: _ -> Some (ch, n)

let dominant_cause c =
  match
    List.stable_sort (fun (_, n1) (_, n2) -> compare n2 n1) c.stalls_by_cause
  with
  | [] -> None
  | (cause, n) :: _ -> Some (cause, n)

let row_line ~cycles c =
  let pct n = if cycles = 0 then 0. else 100. *. float_of_int n /. float_of_int cycles in
  let cause =
    match dominant_cause c with
    | None -> "-"
    | Some (cause, n) -> Printf.sprintf "%s:%d" (cause_name cause) n
  in
  let blocker =
    match top_blocker c with
    | None -> "-"
    | Some (ch, n) -> Printf.sprintf "%s:%d" ch n
  in
  Printf.sprintf "%-18s %-6s %8d %5.1f%% %8d  %-24s %s" c.name (kind_name c.kind)
    c.stalled_cycles (pct c.stalled_cycles) c.busy_cycles cause blocker

let pp_attribution fmt r =
  let rows = attribution r in
  Format.fprintf fmt "stall attribution (%d cycles simulated, %d blocked component-cycles):@."
    r.cycles (total_blocked r);
  Format.fprintf fmt "  %-18s %-6s %8s %6s %8s  %-24s %s@." "component" "kind" "blocked" "" "busy"
    "top cause" "top blocking channel";
  if rows = [] then Format.fprintf fmt "  (no component ever stalled)@."
  else List.iter (fun c -> Format.fprintf fmt "  %s@." (row_line ~cycles:r.cycles c)) rows

let attribution_notes ?(limit = 3) r =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  List.map
    (fun c ->
      let blocker =
        match top_blocker c with
        | None -> ""
        | Some (ch, n) -> Printf.sprintf " (mostly on %s, %d cycles)" ch n
      in
      let cause =
        match dominant_cause c with None -> "" | Some (cause, _) -> " " ^ cause_name cause
      in
      Printf.sprintf "%s %s: %d blocked cycles%s%s" (kind_name c.kind) c.name c.stalled_cycles
        cause blocker)
    (take limit (attribution r))

(* ------------------------------------------------------------------ *)
(* JSON renderings.                                                    *)
(* ------------------------------------------------------------------ *)

let counters_json r =
  let component c =
    Json.Obj
      ([
         ("name", Json.String c.name);
         ("kind", Json.String (kind_name c.kind));
         ("busy_cycles", Json.Int c.busy_cycles);
         ("stalled_cycles", Json.Int c.stalled_cycles);
         ("pushes", Json.Int c.pushes);
         ("pops", Json.Int c.pops);
         ("bytes", Json.Int c.bytes);
       ]
      @ (if c.stalls_by_cause = [] then []
         else
           [
             ( "stalls_by_cause",
               Json.Obj
                 (List.map (fun (cause, n) -> (cause_name cause, Json.Int n)) c.stalls_by_cause)
             );
           ])
      @
      if c.blocked_on = [] then []
      else
        [
          ( "blocked_on",
            Json.Obj (List.map (fun (ch, n) -> (ch, Json.Int n)) c.blocked_on) );
        ])
  in
  let channel (c : channel_info) =
    Json.Obj
      [
        ("name", Json.String c.channel);
        ("capacity", Json.Int c.capacity);
        ("high_water", Json.Int c.high_water);
        ("pushes", Json.Int c.total_pushed);
        ("pops", Json.Int c.total_popped);
      ]
  in
  Json.Obj
    [
      ("cycles", Json.Int r.cycles);
      ("telemetry", Json.Bool r.enabled);
      ("components", Json.List (List.map component r.components));
      ("channels", Json.List (List.map channel r.channels));
    ]

(* Chrome trace_event format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
   One process (pid 0), one thread per component; timestamps are cycle
   numbers interpreted as microseconds. *)
let trace_events_json r =
  let tracks =
    (* Components first (registry order), then channels with samples. *)
    List.map (fun c -> c.name) r.components
  in
  let tid_of =
    let tbl = Hashtbl.create 32 in
    List.iteri (fun i name -> Hashtbl.replace tbl name i) tracks;
    fun name ->
      match Hashtbl.find_opt tbl name with
      | Some i -> i
      | None ->
          let i = Hashtbl.length tbl in
          Hashtbl.replace tbl name i;
          i
  in
  let base ?(args = []) ~name ~ph ~tid ~ts extra =
    Json.Obj
      ([
         ("name", Json.String name);
         ("ph", Json.String ph);
         ("pid", Json.Int 0);
         ("tid", Json.Int tid);
         ("ts", Json.Int ts);
       ]
      @ extra
      @ if args = [] then [] else [ ("args", Json.Obj args) ])
  in
  let meta =
    base ~args:[ ("name", Json.String "stencilflow simulation") ] ~name:"process_name" ~ph:"M"
      ~tid:0 ~ts:0 []
    :: List.map
         (fun c ->
           base
             ~args:[ ("name", Json.String (kind_name c.kind ^ " " ^ c.name)) ]
             ~name:"thread_name" ~ph:"M" ~tid:(tid_of c.name) ~ts:0 [])
         r.components
  in
  let span_events =
    List.map
      (fun s ->
        let args =
          match s.blocking with
          | Some ch -> [ ("blocking_channel", Json.String ch) ]
          | None -> []
        in
        base ~args ~name:s.label ~ph:"X" ~tid:(tid_of s.track) ~ts:s.start_cycle
          [ ("dur", Json.Int (max 1 (s.end_cycle - s.start_cycle))) ])
      r.spans
  in
  let counter_events =
    List.concat_map
      (fun (cycle, occupancies) ->
        List.map
          (fun (ch, occ) ->
            base
              ~args:[ ("occupancy", Json.Int occ) ]
              ~name:("fifo " ^ ch) ~ph:"C" ~tid:0 ~ts:cycle [])
          occupancies)
      r.samples
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ span_events @ counter_events));
      ("displayTimeUnit", Json.String "ms");
    ]
