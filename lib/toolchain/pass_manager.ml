module Diag = Sf_support.Diag
module F = Sf_support.Fingerprint
module Partition = Sf_mapping.Partition
module Resource = Sf_models.Resource

type kind = Frontend | Transform | Analysis | Mapping | Codegen | Simulation | Other

let kind_to_string = function
  | Frontend -> "frontend"
  | Transform -> "transform"
  | Analysis -> "analysis"
  | Mapping -> "mapping"
  | Codegen -> "codegen"
  | Simulation -> "simulation"
  | Other -> "other"

type pass = {
  name : string;
  description : string;
  kind : kind;
  reads : Ctx.packed list;
  writes : Ctx.packed list;
  fingerprint : unit -> F.t option;
  run : Ctx.t -> (Ctx.t, Diag.t list) result;
}

let make_pass ?(reads = []) ?(writes = []) ?(fingerprint = fun () -> None) ~name ~description
    ~kind run =
  { name; description; kind; reads; writes; fingerprint; run }

let monotime = Sf_support.Util.monotime

type timing = {
  pass : string;
  kind : kind;
  seconds : float;
  counters_before : (string * int) list Lazy.t;
  counters_after : (string * int) list Lazy.t;
  ok : bool;
  cached : bool;
  joined : bool;
  missed : bool;
}

type trace = timing list

type hooks = {
  on_pass : (timing -> unit) option;
  dump : (index:int -> pass:string -> Ctx.t -> unit) option;
}

let no_hooks = { on_pass = None; dump = None }

(* A slot the pass wrote: it now holds a value it did not hold before
   (physically). *)
let wrote (slot : _ Ctx.slot) ctx ctx' =
  match (slot.Ctx.get ctx, slot.Ctx.get ctx') with
  | _, None -> false
  | None, Some _ -> true
  | Some a, Some b -> a != b

(* Post-pass invariants over the artifacts the pass wrote: a slot the
   pass left alone was checked when it was written, and each check is a
   function of the slots it reads. The program needs none: its slot
   holds a [Program.checked], which only a passing check makes. Returns
   hard errors (abort) and warnings (dedupe into ctx.diags). *)
let invariant_diags (ctx : Ctx.t) (ctx' : Ctx.t) =
  let errors = ref [] and warnings = ref [] in
  let error d = errors := d :: !errors in
  let warning d = warnings := d :: !warnings in
  let wrote slot = wrote slot ctx ctx' in
  (match ctx'.Ctx.analysis with
  | Some a when wrote Ctx.analysis_slot ->
      List.iter
        (fun ((src, dst), depth) ->
          if depth < 0 then
            error
              (Diag.errorf ~code:Diag.Code.analysis_invariant
                 "delay buffer %s -> %s has negative depth %d" src dst depth))
        a.Sf_analysis.Delay_buffer.edges
  | _ -> ());
  (match ctx'.Ctx.partition with
  | Some pt when wrote Ctx.program_slot || wrote Ctx.partition_slot || wrote Ctx.device_slot ->
      List.iteri
        (fun d usage ->
          if not (Resource.fits ctx'.Ctx.device usage) then
            warning
              (Diag.warningf ~code:Diag.Code.partition_invariant
                 "device %d of the partition exceeds the %s resource budget" d
                 ctx'.Ctx.device.Sf_models.Device.name))
        pt.Partition.per_device_usage
  | _ -> ());
  (List.rev !errors, List.rev !warnings)

(* Replay a cache entry: install every captured write slot (the program
   slot first in declaration order, so its derived-artifact invalidation
   cannot clobber a slot installed after it) with the entry's digest,
   and re-append the recorded diagnostics through [add_diag]
   (deduplicated like a live run). *)
let replay ctx (entry : Cache.entry) =
  let ctx =
    List.fold_left
      (fun ctx (Cache.B (slot, v, d)) -> Ctx.keep (slot.Ctx.put ctx v) slot v d)
      ctx entry.Cache.bindings
  in
  List.fold_left Ctx.add_diag ctx entry.Cache.diags

(* Capture what a successful execution produced: the declared write
   slots that are present afterwards, with the digests [ctx'] keeps for
   them, plus the diagnostics appended relative to the pre-pass context
   ([add_diag] only ever appends). *)
let capture (pass : pass) (ctx : Ctx.t) (ctx' : Ctx.t) =
  let bindings =
    List.filter_map
      (fun (Ctx.P slot as p) ->
        match (slot.Ctx.get ctx', Ctx.digest_of ctx' p) with
        | Some v, Some d -> Some (Cache.B (slot, v, d))
        | _ -> None)
      pass.writes
  in
  let before = List.length ctx.Ctx.diags in
  let diags = List.filteri (fun i _ -> i >= before) ctx'.Ctx.diags in
  { Cache.bindings; diags }

let run ?(hooks = no_hooks) ?cache ?(should_stop = fun () -> false) ?deadline passes ctx =
  let trace = ref [] in
  let record t =
    trace := t :: !trace;
    match hooks.on_pass with Some f -> f t | None -> ()
  in
  (* Counters are computed only for a consumer that forces them; one
     lazy value serves as a pass's [counters_after] and the next pass's
     [counters_before]. *)
  let rec go index ctx counters_before = function
    | [] -> Ok (ctx, List.rev !trace)
    | pass :: rest ->
        if should_stop () then
          (* Cancellation is only honoured at pass boundaries: a pass
             either runs to completion or not at all, so a cancelled
             request can never publish a half-built artifact. *)
          Error
            ( [ Diag.errorf ~code:Diag.Code.cancelled "request cancelled before pass %s" pass.name ],
              List.rev !trace )
        else begin
          let lookup =
            match (cache, pass.fingerprint ()) with
            | Some cache, Some options_fp ->
                let key =
                  Cache.key ~pass_name:pass.name ~options_fp:(Some options_fp) ~reads:pass.reads
                    ctx
                in
                (* The deadline also bounds the single-flight wait: a
                   waiter parked behind a stalled leader takes the
                   flight over at the deadline instead of blocking
                   forever (and then typically fails fast below). *)
                Some (cache, Cache.acquire ?wait_until:deadline cache key)
            | _ -> None
          in
          match lookup with
          | Some (_, ((Cache.Hit entry | Cache.Joined entry) as outcome)) ->
              (* Hit: the entry was stored after its invariants passed, so
                 replaying it cannot introduce an invariant violation. *)
              let t0 = monotime () in
              let ctx' = replay ctx entry in
              let seconds = monotime () -. t0 in
              let counters_after = lazy (Ctx.counters ctx') in
              record
                {
                  pass = pass.name;
                  kind = pass.kind;
                  seconds;
                  counters_before;
                  counters_after;
                  ok = true;
                  cached = true;
                  joined = (match outcome with Cache.Joined _ -> true | _ -> false);
                  missed = false;
                };
              (match hooks.dump with Some f -> f ~index ~pass:pass.name ctx' | None -> ());
              go (index + 1) ctx' counters_after rest
          | Some (_, Cache.Miss _) | None -> (
              (* As flight leader (the [Miss] case) this execution must
                 settle the flight on every exit path: [fulfill] only
                 after the invariants pass, [abandon] on failure or
                 invariant violation — failed runs are never published,
                 and a parked follower then retries as the new leader. *)
              let flight =
                match lookup with Some (cache, Cache.Miss f) -> Some (cache, f) | _ -> None
              in
              let abandon () =
                match flight with Some (cache, f) -> Cache.abandon cache f | None -> ()
              in
              let expired =
                match deadline with Some d -> monotime () >= d | None -> false
              in
              if expired then begin
                (* The deadline is only charged against actual work:
                   cached replays above are free, so a warm request can
                   still answer after its budget, while a cold one
                   stops at the first pass it cannot afford. Completed
                   passes stay cached for the retry. *)
                abandon ();
                Error
                  ( [
                      Diag.errorf ~code:Diag.Code.deadline "deadline exceeded before pass %s"
                        pass.name;
                    ],
                    List.rev !trace )
              end
              else
              let t0 = monotime () in
              let result =
                try pass.run ctx
                with exn ->
                  Error
                    [
                      Diag.errorf ~code:Diag.Code.internal "pass %s raised: %s" pass.name
                        (Printexc.to_string exn);
                    ]
              in
              let seconds = monotime () -. t0 in
              let entry ok counters_after =
                {
                  pass = pass.name;
                  kind = pass.kind;
                  seconds;
                  counters_before;
                  counters_after;
                  ok;
                  cached = false;
                  joined = false;
                  missed = flight <> None;
                }
              in
              match result with
              | Error ds ->
                  abandon ();
                  record (entry false counters_before);
                  Error (ds, List.rev !trace)
              | Ok ctx' -> (
                  let errors, warnings = invariant_diags ctx ctx' in
                  let ctx' = List.fold_left Ctx.add_diag ctx' warnings in
                  let ctx' = Ctx.keep_written ctx' pass.writes in
                  let counters_after = lazy (Ctx.counters ctx') in
                  record (entry (errors = []) counters_after);
                  match errors with
                  | _ :: _ ->
                      abandon ();
                      Error (errors, List.rev !trace)
                  | [] ->
                      (match flight with
                      | Some (cache, f) -> Cache.fulfill cache f (capture pass ctx ctx')
                      | None -> ());
                      (match hooks.dump with
                      | Some f -> f ~index ~pass:pass.name ctx'
                      | None -> ());
                      go (index + 1) ctx' counters_after rest))
        end
  in
  go 0 ctx (lazy (Ctx.counters ctx)) passes

let pp_counters fmt (before, after) =
  List.iter
    (fun (key, v) ->
      match List.assoc_opt key before with
      | Some v0 when v0 <> v -> Format.fprintf fmt " %s=%d->%d" key v0 v
      | Some _ | None -> Format.fprintf fmt " %s=%d" key v)
    after

let pp_trace fmt (trace : trace) =
  Format.fprintf fmt "pass trace (%d pass(es)):@." (List.length trace);
  List.iter
    (fun t ->
      Format.fprintf fmt "  %-18s %-10s %8.2f ms %s%s%a@." t.pass (kind_to_string t.kind)
        (t.seconds *. 1000.)
        (if t.cached then "[cached]" else "")
        (if t.ok then "" else "[FAILED]")
        pp_counters
        (Lazy.force t.counters_before, Lazy.force t.counters_after))
    trace

let cached_passes (trace : trace) = List.length (List.filter (fun t -> t.cached) trace)
let executed_passes (trace : trace) = List.length (List.filter (fun t -> not t.cached) trace)
