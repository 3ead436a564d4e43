(* Deterministic timing-fault plans and their injector. See
   fault_plan.mli for the contract; Faults layers the campaign /
   shrinking harness on top. *)

module Rng = struct
  type t = { mutable state : int64 }

  (* SplitMix64: one 64-bit word of state advanced by the golden-ratio
     increment, finalized by the Stafford mix13 permutation. Chosen for
     its trivially splittable keyed derivation, not for quality beyond
     what a schedule perturbation needs. *)
  let golden = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let make seed = { state = Int64.of_int seed }

  let bits64 t =
    t.state <- Int64.add t.state golden;
    mix t.state

  let int t n =
    if n <= 0 then invalid_arg "Fault_plan.Rng.int: bound must be positive";
    Int64.to_int (Int64.rem (Int64.logand (bits64 t) Int64.max_int) (Int64.of_int n))

  (* FNV-1a over the key, folded into the parent state WITHOUT advancing
     it: sibling streams derived from the same parent are independent of
     the order they are split in. *)
  let split t key =
    let h = ref 0xCBF29CE484222325L in
    String.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
      key;
    { state = mix (Int64.logxor t.state !h) }
end

type kind = Link_stall | Link_jitter | Mem_throttle | Write_backpressure | Unit_hiccup

let kind_name = function
  | Link_stall -> "link-stall"
  | Link_jitter -> "link-jitter"
  | Mem_throttle -> "mem-throttle"
  | Write_backpressure -> "write-backpressure"
  | Unit_hiccup -> "unit-hiccup"

let kind_of_name = function
  | "link-stall" -> Some Link_stall
  | "link-jitter" -> Some Link_jitter
  | "mem-throttle" -> Some Mem_throttle
  | "write-backpressure" -> Some Write_backpressure
  | "unit-hiccup" -> Some Unit_hiccup
  | _ -> None

module Burst = struct
  type t = {
    kind : kind;
    target : string option;
    gap : int;
    duration : int;
    magnitude : int;
    count : int;
  }

  let make ?target ?(gap = 200) ?(duration = 16) ?(magnitude = 8) ?(count = max_int) kind =
    if gap < 1 then invalid_arg "Fault_plan.Burst.make: gap must be >= 1";
    if duration < 1 then invalid_arg "Fault_plan.Burst.make: duration must be >= 1";
    if magnitude < 1 then invalid_arg "Fault_plan.Burst.make: magnitude must be >= 1";
    { kind; target; gap; duration; magnitude; count }
end

module Event = struct
  type t = { kind : kind; target : string; start : int; duration : int; magnitude : int }
end

type t = {
  bursts : Burst.t list;
  events : Event.t list;
  depth_overrides : ((string * string) * int) list;
}

let plan ?(bursts = []) ?(events = []) ?(depth_overrides = []) () =
  { bursts; events; depth_overrides }

let none = plan ()

(* The stock adversary: every fault kind, aimed at every matching
   component, with gaps short enough that even small fixture runs see
   several bursts, and durations far below any sane deadlock window so
   bounded faults can never trip SF0701 by themselves. *)
let default =
  {
    bursts =
      [
        Burst.make ~gap:200 ~duration:24 Link_stall;
        Burst.make ~gap:150 ~duration:16 ~magnitude:12 Link_jitter;
        Burst.make ~gap:180 ~duration:20 Mem_throttle;
        Burst.make ~gap:170 ~duration:20 Write_backpressure;
        Burst.make ~gap:120 ~duration:12 Unit_hiccup;
      ];
    events = [];
    depth_overrides = [];
  }

(* ------------------------------------------------------------------ *)
(* Plan grammar: semicolon-separated items.                            *)
(*   kind[@target][:k=v,...]   burst (keys gap, dur, mag, count)       *)
(*   kind@target:start=S,...   explicit event (presence of start)      *)
(*   depth:src->dst=N          per-edge analysed-depth override        *)
(* "default" and "none" name the canned plans.                         *)
(* ------------------------------------------------------------------ *)

let to_string p =
  let burst (b : Burst.t) =
    let head =
      match b.target with
      | None -> kind_name b.kind
      | Some t -> Printf.sprintf "%s@%s" (kind_name b.kind) t
    in
    let kvs =
      [ Printf.sprintf "gap=%d" b.gap; Printf.sprintf "dur=%d" b.duration;
        Printf.sprintf "mag=%d" b.magnitude ]
      @ if b.count = max_int then [] else [ Printf.sprintf "count=%d" b.count ]
    in
    head ^ ":" ^ String.concat "," kvs
  in
  let event (e : Event.t) =
    Printf.sprintf "%s@%s:start=%d,dur=%d,mag=%d" (kind_name e.kind) e.target e.start
      e.duration e.magnitude
  in
  let depth ((src, dst), n) = Printf.sprintf "depth:%s->%s=%d" src dst n in
  let items =
    List.map burst p.bursts @ List.map event p.events @ List.map depth p.depth_overrides
  in
  match items with [] -> "none" | _ -> String.concat ";" items

let of_string spec =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parse_int what s =
    match int_of_string_opt (String.trim s) with
    | Some n -> Ok n
    | None -> fail "%s is not an integer: %S" what s
  in
  let parse_depth body =
    match String.index_opt body '=' with
    | None -> fail "depth override needs src->dst=N, got %S" body
    | Some eq ->
        let edge = String.sub body 0 eq in
        let value = String.sub body (eq + 1) (String.length body - eq - 1) in
        let* n = parse_int "depth" value in
        let arrow =
          let rec find i =
            if i + 2 > String.length edge then None
            else if String.sub edge i 2 = "->" then Some i
            else find (i + 1)
          in
          find 0
        in
        (match arrow with
        | Some i when i > 0 && i + 2 < String.length edge ->
            let src = String.trim (String.sub edge 0 i) in
            let dst = String.trim (String.sub edge (i + 2) (String.length edge - i - 2)) in
            Ok (`Depth ((src, dst), n))
        | _ -> fail "depth override needs src->dst=N, got %S" body)
  in
  let parse_kvs part =
    if part = "" then Ok []
    else
      List.fold_left
        (fun acc kv ->
          let* acc = acc in
          match String.index_opt kv '=' with
          | None -> fail "expected key=value, got %S" kv
          | Some eq ->
              let k = String.trim (String.sub kv 0 eq) in
              let* v = parse_int k (String.sub kv (eq + 1) (String.length kv - eq - 1)) in
              Ok ((k, v) :: acc))
        (Ok []) (String.split_on_char ',' part)
  in
  let parse_item item =
    match String.index_opt item ':' with
    | Some 5 when String.sub item 0 5 = "depth" ->
        parse_depth (String.sub item 6 (String.length item - 6))
    | colon ->
        let head, kv_part =
          match colon with
          | None -> (item, "")
          | Some c -> (String.sub item 0 c, String.sub item (c + 1) (String.length item - c - 1))
        in
        let kind_s, target =
          match String.index_opt head '@' with
          | None -> (head, None)
          | Some at ->
              ( String.sub head 0 at,
                Some (String.trim (String.sub head (at + 1) (String.length head - at - 1))) )
        in
        let* kind =
          match kind_of_name (String.trim kind_s) with
          | Some k -> Ok k
          | None -> fail "unknown fault kind %S" kind_s
        in
        let* kvs = parse_kvs kv_part in
        let get k d = match List.assoc_opt k kvs with Some v -> v | None -> d in
        let known = [ "gap"; "dur"; "mag"; "count"; "start" ] in
        (match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
        | Some (k, _) -> fail "unknown key %S in %S" k item
        | None ->
            if List.mem_assoc "start" kvs then
              match target with
              | None -> fail "explicit event %S needs a @target" item
              | Some target ->
                  Ok
                    (`Event
                      {
                        Event.kind;
                        target;
                        start = get "start" 0;
                        duration = get "dur" 1;
                        magnitude = get "mag" 1;
                      })
            else
              Ok
                (`Burst
                  (Burst.make ?target ~gap:(get "gap" 200) ~duration:(get "dur" 16)
                     ~magnitude:(get "mag" 8) ~count:(get "count" max_int) kind)))
  in
  match String.trim spec with
  | "" | "none" -> Ok none
  | "default" -> Ok default
  | spec ->
      let items = String.split_on_char ';' spec |> List.map String.trim in
      let* parsed =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            if item = "" then Ok acc
            else
              let* p = parse_item item in
              Ok (p :: acc))
          (Ok []) items
      in
      let parsed = List.rev parsed in
      Ok
        {
          bursts = List.filter_map (function `Burst b -> Some b | _ -> None) parsed;
          events = List.filter_map (function `Event e -> Some e | _ -> None) parsed;
          depth_overrides = List.filter_map (function `Depth d -> Some d | _ -> None) parsed;
        }

(* ------------------------------------------------------------------ *)
(* Injector.                                                           *)
(* ------------------------------------------------------------------ *)

type summary = { injected_events : int; injected_stall_cycles : int; log : Event.t list }

let empty_summary = { injected_events = 0; injected_stall_cycles = 0; log = [] }

type source =
  | Renewal of { rng : Rng.t; gap : int; max_dur : int; max_mag : int; mutable left : int }
  | Scripted of { mutable queue : (int * int * int) list (* start, dur, mag; sorted *) }

(* What an active stream does: freeze a component (by index), add its
   magnitude to a link's latency, or deny a memory controller. *)
type effect = Freeze of int | Jitter of Link.t * int | Deny of Controller.t

type stream = {
  s_kind : kind;
  s_target : string;
  effect : effect;
  source : source;
  mutable next_start : int;
  mutable active_until : int; (* exclusive end of the active burst; -1 when idle *)
  mutable magnitude : int;
}

type injector = {
  streams : stream list;
  frozen : int array; (* per component index, the end of its freeze *)
  mutable horizon : int;
  mutable event_log : Event.t list; (* newest first *)
}

let next_transition streams =
  List.fold_left
    (fun h s ->
      if s.active_until >= 0 then min h s.active_until
      else
        match s.source with
        | Renewal r when r.left > 0 -> min h s.next_start
        | Scripted { queue = (start, _, _) :: _ } -> min h start
        | Renewal _ | Scripted _ -> h)
    max_int streams

let create ~seed ~(plan : t) ~links ~controllers ~units ~writers =
  let root = Rng.make seed in
  (* Each candidate target: its name and what a burst does to it. *)
  let freezes = List.map (fun (name, i) -> (name, Freeze i)) in
  let targets_for kind : (string * effect) list =
    match kind with
    | Link_stall -> freezes (List.map (fun (l, i) -> (Link.name l, i)) links)
    | Link_jitter -> List.map (fun (l, i) -> (Link.name l, Jitter (l, i))) links
    | Mem_throttle -> List.map (fun (name, c) -> (name, Deny c)) controllers
    | Write_backpressure -> freezes writers
    | Unit_hiccup -> freezes units
  in
  let matching target candidates =
    match target with
    | None -> candidates
    | Some t -> List.filter (fun (name, _) -> String.equal name t) candidates
  in
  let burst_streams =
    List.concat
      (List.mapi
         (fun bi (b : Burst.t) ->
           List.map
             (fun (name, effect) ->
               let rng = Rng.split root (Printf.sprintf "%s/%s/%d" (kind_name b.kind) name bi) in
               let next_start = 1 + Rng.int rng (2 * b.gap) in
               {
                 s_kind = b.kind;
                 s_target = name;
                 effect;
                 source =
                   Renewal
                     { rng; gap = b.gap; max_dur = b.duration; max_mag = b.magnitude;
                       left = b.count };
                 next_start;
                 active_until = -1;
                 magnitude = 1;
               })
             (matching b.target (targets_for b.kind)))
         plan.bursts)
  in
  let script_streams =
    (* One scripted stream per (kind, target), events sorted by start.
       Events naming absent components are dropped — a plan written for a
       multi-device run stays usable on a single-device degrade. *)
    let tbl : (string * string, (int * int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (e : Event.t) ->
        let key = (kind_name e.kind, e.target) in
        match Hashtbl.find_opt tbl key with
        | Some q -> q := (e.start, e.duration, e.magnitude) :: !q
        | None ->
            Hashtbl.replace tbl key (ref [ (e.start, e.duration, e.magnitude) ]);
            order := (e.kind, e.target) :: !order)
      plan.events;
    List.filter_map
      (fun (kind, target) ->
        match matching (Some target) (targets_for kind) with
        | [] -> None
        | (name, effect) :: _ ->
            let q = !(Hashtbl.find tbl (kind_name kind, target)) in
            let queue = List.sort compare q in
            Some
              {
                s_kind = kind;
                s_target = name;
                effect;
                source = Scripted { queue };
                next_start = (match queue with (s, _, _) :: _ -> s | [] -> max_int);
                active_until = -1;
                magnitude = 1;
              })
      (List.rev !order)
  in
  let streams = burst_streams @ script_streams in
  let components =
    List.fold_left (fun n i -> Int.max n (i + 1)) 0
      (List.map snd links @ List.map snd units @ List.map snd writers)
  in
  {
    streams;
    frozen = Array.make components 0;
    horizon = next_transition streams;
    event_log = [];
  }

(* The whole fault timeline is a pure function of (seed, plan): every
   draw happens at a cycle determined by earlier draws alone, never by
   simulation state, so two runs with different schedules see the exact
   same perturbation sequence. Streams end and start bursts first; the
   state of every target is then derived afresh from the active ones. *)
let tick inj ~now ~wake =
  let target s = match s.effect with Freeze i | Jitter (_, i) -> Some i | Deny _ -> None in
  List.iter
    (fun s ->
      if s.active_until >= 0 && now >= s.active_until then begin
        s.active_until <- -1;
        Option.iter wake (target s);
        match s.source with
        | Renewal r -> s.next_start <- now + 1 + Rng.int r.rng (2 * r.gap)
        | Scripted _ -> ()
      end;
      if s.active_until < 0 then begin
        let activate dur mag =
          s.active_until <- now + dur;
          s.magnitude <- mag;
          Option.iter wake (target s);
          inj.event_log <-
            { Event.kind = s.s_kind; target = s.s_target; start = now; duration = dur;
              magnitude = mag }
            :: inj.event_log
        in
        match s.source with
        | Renewal r ->
            if r.left > 0 && now >= s.next_start then begin
              r.left <- r.left - 1;
              let dur = 1 + Rng.int r.rng r.max_dur in
              let mag = 1 + Rng.int r.rng r.max_mag in
              activate dur mag
            end
        | Scripted q -> (
            match q.queue with
            | (start, dur, mag) :: rest when start <= now ->
                q.queue <- rest;
                activate dur mag
            | _ -> ())
      end)
    inj.streams;
  List.iter
    (fun s ->
      match s.effect with
      | Freeze i -> inj.frozen.(i) <- 0
      | Jitter (l, _) -> Link.set_extra_latency l 0
      | Deny c -> Controller.set_denied c false)
    inj.streams;
  List.iter
    (fun s ->
      if s.active_until > now then
        match s.effect with
        | Freeze i -> inj.frozen.(i) <- Int.max inj.frozen.(i) s.active_until
        | Jitter (l, _) -> Link.set_extra_latency l (Int.max s.magnitude (Link.extra_latency l))
        | Deny c -> Controller.set_denied c true)
    inj.streams;
  inj.horizon <- next_transition inj.streams

let horizon inj = inj.horizon

let frozen_until inj i = if i < Array.length inj.frozen then inj.frozen.(i) else 0

(* An event perturbs its target from its start for its duration, cut
   off at the end of the run; so the totals follow from the log, however
   many cycles the engine skipped. *)
let summary inj ~cycles =
  let log = List.rev inj.event_log in
  {
    injected_events = List.length log;
    injected_stall_cycles =
      List.fold_left (fun n (e : Event.t) -> n + max 0 (min e.duration (cycles - e.start))) 0 log;
    log;
  }

let attribution_notes (s : summary) ~stall_cycle =
  match List.filter (fun (e : Event.t) -> e.Event.start <= stall_cycle) s.log with
  | [] -> []
  | before ->
      let rec take n = function
        | e :: rest when n > 0 -> e :: take (n - 1) rest
        | _ -> []
      in
      Printf.sprintf
        "injected %d timing-fault event(s) (%d perturbed component-cycles) before the failure"
        s.injected_events s.injected_stall_cycles
      :: List.map
           (fun (e : Event.t) ->
             Printf.sprintf
               "fault-attribution: %s on %s injected at cycle %d for %d cycle(s) preceded the stall"
               (kind_name e.kind) e.target e.start e.duration)
           (take 3 (List.rev before))
