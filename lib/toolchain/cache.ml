module F = Sf_support.Fingerprint
module Store = Sf_support.Store
module Diag = Sf_support.Diag

type binding = B : 'a Ctx.slot * 'a * Ctx.digest -> binding
type entry = { bindings : binding list; diags : Diag.t list }

(* LRU bookkeeping: each record carries the logical time of its last
   use; eviction scans for the minimum. Capacities are small (hundreds),
   so the O(n) scan is cheaper than maintaining an intrusive list. *)
type record = { mutable last_use : int; entry : entry }

(* One in-progress execution of a key. The first caller to miss becomes
   the leader and runs the pass; concurrent callers with the same key
   block on [cv] (sharing the cache mutex) until the leader settles the
   flight with [fulfill] (outcome = Some entry) or [abandon] (None —
   failed or cancelled executions are never published). *)
type flight = {
  flight_key : F.t;
  mutable settled : bool;
  mutable outcome : entry option;
  cv : Condition.t;
}

type t = {
  capacity : int;
  mu : Mutex.t;
  table : (F.t, record) Hashtbl.t;
  flights : (F.t, flight) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evictions : int;
  mutable joined : int;
  mutable store_corrupt : int;
  mutable takeovers : int;
  mutable store : Store.t option;
}

let create ?(capacity = 128) () =
  {
    capacity = max 1 capacity;
    mu = Mutex.create ();
    table = Hashtbl.create 64;
    flights = Hashtbl.create 8;
    tick = 0;
    hits = 0;
    misses = 0;
    stale = 0;
    evictions = 0;
    joined = 0;
    store_corrupt = 0;
    takeovers = 0;
    store = None;
  }

let with_store t store =
  t.store <- Some store;
  t

let absent_marker = F.of_string "<absent>"

let key ~pass_name ~options_fp ~reads ctx =
  let read_fp slot =
    match Ctx.kept_fingerprint ctx slot with Some fp -> fp | None -> absent_marker
  in
  F.combine
    (F.of_string pass_name
    :: (match options_fp with Some fp -> fp | None -> absent_marker)
    :: List.map read_fp reads)

(* Disk format: a marshalled [(slot_name, marshalled value) list * Diag.t
   list]. The outer structure is versioned by the store header; the
   per-value bytes are reattached to their typed slot by name, which is
   the one place the module must trust the schema version ([Obj.magic]).
   Every failure mode — unknown slot, truncated bytes, incompatible
   marshal — lands in the [with] and is accounted as stale. Digests are
   not stored: a loaded entry computes each on first use. *)
let serialize entry =
  try
    let bindings =
      List.map (fun (B (slot, v, _)) -> (slot.Ctx.slot_name, Marshal.to_string v [])) entry.bindings
    in
    Some (Marshal.to_string (bindings, entry.diags) [])
  with _ -> None

let deserialize payload =
  try
    let bindings, diags = (Marshal.from_string payload 0 : (string * string) list * Diag.t list) in
    let bind (name, bytes) =
      match Ctx.find_slot name with
      | None -> raise Exit
      | Some (Ctx.P slot) ->
          B (slot, Obj.magic (Marshal.from_string bytes 0), Ctx.fresh_digest ())
    in
    Some { bindings = List.map bind bindings; diags }
  with _ -> None

(* The helpers below assume [t.mu] is held by the caller. *)

let touch t record =
  t.tick <- t.tick + 1;
  record.last_use <- t.tick

let insert_memory t key entry =
  if not (Hashtbl.mem t.table key) then begin
    if Hashtbl.length t.table >= t.capacity then begin
      let victim =
        Hashtbl.fold
          (fun k r acc ->
            match acc with
            | Some (_, best) when best.last_use <= r.last_use -> acc
            | _ -> Some (k, r))
          t.table None
      in
      match victim with
      | Some (k, _) ->
          Hashtbl.remove t.table k;
          t.evictions <- t.evictions + 1
      | None -> ()
    end;
    let record = { last_use = 0; entry } in
    touch t record;
    Hashtbl.add t.table key record
  end

let settle t flight outcome =
  flight.settled <- true;
  flight.outcome <- outcome;
  (* Only unregister the flight we actually own: after a takeover the
     table holds the new leader's flight under the same key, and a
     stale leader settling late must not evict it. *)
  (match Hashtbl.find_opt t.flights flight.flight_key with
  | Some registered when registered == flight -> Hashtbl.remove t.flights flight.flight_key
  | _ -> ());
  Condition.broadcast flight.cv

type outcome = Hit of entry | Joined of entry | Miss of flight

(* Wait for [flight] to settle while holding [t.mu]. Without a bound
   this is a plain [Condition.wait] loop. With [wait_until] (an absolute
   {!Sf_support.Util.monotime}) the wait polls — OCaml's [Condition] has
   no timed wait — and returns [`Expired] once the bound passes with the
   flight still unsettled. *)
let wait_for_flight t flight wait_until =
  match wait_until with
  | None ->
      while not flight.settled do
        Condition.wait flight.cv t.mu
      done;
      `Settled
  | Some bound ->
      let rec loop () =
        if flight.settled then `Settled
        else if Sf_support.Util.monotime () >= bound then `Expired
        else begin
          Mutex.unlock t.mu;
          Unix.sleepf 0.001;
          Mutex.lock t.mu;
          loop ()
        end
      in
      loop ()

let acquire ?wait_until t key =
  Mutex.lock t.mu;
  let rec go ~waited =
    match Hashtbl.find_opt t.table key with
    | Some record ->
        touch t record;
        if waited then t.joined <- t.joined + 1 else t.hits <- t.hits + 1;
        let entry = record.entry in
        Mutex.unlock t.mu;
        if waited then Joined entry else Hit entry
    | None -> (
        match Hashtbl.find_opt t.flights key with
        | Some flight -> (
            match wait_for_flight t flight wait_until with
            | `Expired ->
                (* The leader stalled past our bound. If its flight is
                   still the registered one, take it over: unregister
                   the stalled flight and lead a fresh one, so waiters
                   are never parked behind a wedged (or crashed) leader
                   forever. The stale leader's eventual settle is
                   harmless — [settle] only unregisters its own
                   flight. *)
                let fresh =
                  { flight_key = key; settled = false; outcome = None; cv = Condition.create () }
                in
                (match Hashtbl.find_opt t.flights key with
                | Some registered when registered == flight -> Hashtbl.remove t.flights key
                | _ -> ());
                Hashtbl.replace t.flights key fresh;
                t.takeovers <- t.takeovers + 1;
                t.misses <- t.misses + 1;
                Mutex.unlock t.mu;
                Miss fresh
            | `Settled -> (
                match flight.outcome with
                | Some entry ->
                    (* The leader published while we slept: a deduplicated
                       execution, counted separately from plain hits. *)
                    t.joined <- t.joined + 1;
                    Mutex.unlock t.mu;
                    Joined entry
                | None ->
                    (* Leader failed or was cancelled; race to lead a fresh
                       attempt (or join whoever won). *)
                    go ~waited))
        | None -> (
            let flight =
              { flight_key = key; settled = false; outcome = None; cv = Condition.create () }
            in
            Hashtbl.add t.flights key flight;
            match t.store with
            | None ->
                t.misses <- t.misses + 1;
                Mutex.unlock t.mu;
                Miss flight
            | Some store -> (
                (* Disk lookup without the lock: blob reads must not
                   stall unrelated keys. The registered flight keeps
                   same-key callers parked meanwhile. *)
                Mutex.unlock t.mu;
                let found =
                  match Store.find store ~key:(F.to_hex key) with
                  | `Absent -> Ok None
                  | `Stale -> Error `Stale
                  | `Corrupt -> Error `Corrupt
                  | `Found payload -> (
                      match deserialize payload with
                      | None -> Error `Stale
                      | Some entry -> Ok (Some entry))
                in
                Mutex.lock t.mu;
                match found with
                | Ok (Some entry) ->
                    insert_memory t key entry;
                    t.hits <- t.hits + 1;
                    settle t flight (Some entry);
                    Mutex.unlock t.mu;
                    if waited then Joined entry else Hit entry
                | Ok None ->
                    t.misses <- t.misses + 1;
                    Mutex.unlock t.mu;
                    Miss flight
                | Error `Stale ->
                    t.stale <- t.stale + 1;
                    Mutex.unlock t.mu;
                    Miss flight
                | Error `Corrupt ->
                    (* The blob failed its checksum; the store has
                       already quarantined it. Count it and execute the
                       pass — a damaged artifact must never replay. *)
                    t.store_corrupt <- t.store_corrupt + 1;
                    t.misses <- t.misses + 1;
                    Mutex.unlock t.mu;
                    Miss flight)))
  in
  go ~waited:false

let fulfill t flight entry =
  (* Write through to the store before publishing: blob IO happens
     outside the lock, and a follower woken by [settle] must already be
     able to find the blob's in-memory twin. *)
  (match t.store with
  | None -> ()
  | Some store -> (
      match serialize entry with
      | None -> ()
      | Some payload -> ignore (Store.put store ~key:(F.to_hex flight.flight_key) payload)));
  Mutex.lock t.mu;
  insert_memory t flight.flight_key entry;
  settle t flight (Some entry);
  Mutex.unlock t.mu

let abandon t flight =
  Mutex.lock t.mu;
  settle t flight None;
  Mutex.unlock t.mu

type stats = {
  hits : int;
  misses : int;
  stale : int;
  evictions : int;
  joined : int;
  store_corrupt : int;
  takeovers : int;
  entries : int;
}

let stats (c : t) =
  Mutex.lock c.mu;
  let s =
    {
      hits = c.hits;
      misses = c.misses;
      stale = c.stale;
      evictions = c.evictions;
      joined = c.joined;
      store_corrupt = c.store_corrupt;
      takeovers = c.takeovers;
      entries = Hashtbl.length c.table;
    }
  in
  Mutex.unlock c.mu;
  s

let clear t =
  Mutex.lock t.mu;
  (* In-progress flights are left to settle into the fresh table; only
     published entries and counters are dropped. *)
  Hashtbl.reset t.table;
  t.tick <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.stale <- 0;
  t.evictions <- 0;
  t.joined <- 0;
  t.store_corrupt <- 0;
  t.takeovers <- 0;
  let store = t.store in
  Mutex.unlock t.mu;
  match store with None -> () | Some store -> ignore (Store.clear store)
