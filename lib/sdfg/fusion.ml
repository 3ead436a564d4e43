open Sf_ir

type report = {
  fused_pairs : (string * string) list;
  stencils_before : int;
  stencils_after : int;
}

let can_fuse (p : Program.t) ~producer ~consumer =
  match (Program.find_stencil p producer, Program.find_stencil p consumer) with
  | None, _ -> Error (Printf.sprintf "%s is not a stencil" producer)
  | _, None -> Error (Printf.sprintf "%s is not a stencil" consumer)
  | Some u, Some v ->
      if List.exists (String.equal producer) p.Program.outputs then
        Error (Printf.sprintf "%s is written to off-chip memory" producer)
      else begin
        match Program.consumers p producer with
        | [ c ] when String.equal c consumer ->
            if not (Stencil.equal_boundaries u v) then
              Error "boundary conditions differ"
            else Ok ()
        | [ _ ] -> Error (Printf.sprintf "%s does not feed %s" producer consumer)
        | consumers ->
            Error
              (Printf.sprintf "%s has %d consumers (container degree > 2)" producer
                 (List.length consumers))
      end

(* The fused body as a hash-consed DAG: substitute the producer's DAG
   [u] (shifted by the access offset) for each access to [producer] in
   [v]. Full-rank fields shift componentwise; lower-dimensional fields
   shift only on the axes they span. The shifted producer is built once
   per distinct offset, shifted copies share whatever nodes coincide
   (constants, overlapping taps), and [Dag.extract] afterwards turns that
   sharing back into let bindings — so fusion does not lose the sharing
   that the paper delegates to "the downstream compiler's CSE". *)
let substitute (p : Program.t) ~producer u v =
  let rank = Program.rank p in
  let shifted : (int list, Dag.t) Hashtbl.t = Hashtbl.create 8 in
  let shift_u delta =
    match Hashtbl.find_opt shifted delta with
    | Some d -> d
    | None ->
        let d =
          Dag.map_accesses
            (fun ~field ~offsets ->
              let axes = Program.field_axes p field in
              if List.length axes = rank then
                Dag.access ~field ~offsets:(List.map2 ( + ) offsets delta)
              else
                Dag.access ~field
                  ~offsets:
                    (List.map2 (fun o axis -> o + List.nth delta axis) offsets axes))
            u
        in
        Hashtbl.replace shifted delta d;
        d
  in
  Dag.map_accesses
    (fun ~field ~offsets ->
      if String.equal field producer then shift_u offsets
      else Dag.access ~field ~offsets)
    v

(* The consumer [v] with the producer [u]'s boundary conditions merged
   in (the consumer's win) and the producer's own dropped; its body is
   the caller's. *)
let merge ~producer (u : Stencil.t) (v : Stencil.t) =
  let from_u =
    List.filter (fun (f, _) -> not (List.mem_assoc f v.Stencil.boundary)) u.Stencil.boundary
  in
  let boundary =
    List.filter (fun (f, _) -> not (String.equal f producer)) (v.Stencil.boundary @ from_u)
  in
  { v with Stencil.boundary }

let fuse_pair (p : Program.t) ~producer ~consumer =
  (match can_fuse p ~producer ~consumer with
  | Ok () -> ()
  | Error m -> invalid_arg ("Fusion.fuse_pair: " ^ m));
  let u = Option.get (Program.find_stencil p producer) in
  let v = Option.get (Program.find_stencil p consumer) in
  let dag =
    substitute p ~producer (Dag.of_body u.Stencil.body) (Dag.of_body v.Stencil.body)
  in
  let fused = { (merge ~producer u v) with Stencil.body = Dag.extract dag } in
  let stencils =
    List.filter_map
      (fun s ->
        if String.equal s.Stencil.name producer then None
        else if String.equal s.Stencil.name consumer then Some fused
        else Some s)
      p.Program.stencils
  in
  let p' = { p with Program.stencils } in
  Program.validate_exn p';
  p'

(* A stencil during [fuse_all]: its current body as a DAG and the fields
   that body reads. The body of [s] is stale once [fused] is set. *)
type node = { s : Stencil.t; dag : Dag.t; reads : string list; fused : bool }

let node ~fused s dag =
  let reads = List.sort_uniq String.compare (List.map fst (Dag.accesses dag)) in
  { s; dag; reads; fused }

(* Fuse the first legal pair in topological order, then start over.
   Each round reads only names (fields read, consumers, the order); a
   fused body stays a DAG until the end, and the program is validated
   once. Re-interning the lets of [Dag.extract] gives back the same
   node, so this sizes and fuses exactly as repeated [fuse_pair] would. *)
let fuse_all ?(max_body_size = max_int) (p : Program.t) =
  let rec go nodes fused_pairs =
    let named = Hashtbl.create 64 and consumers = Hashtbl.create 64 in
    List.iter
      (fun n ->
        Hashtbl.replace named n.s.Stencil.name n;
        List.iter (fun f -> Hashtbl.add consumers f n) n.reads)
      (List.rev nodes);
    let candidate (s : Stencil.t) =
      let u = Hashtbl.find named s.Stencil.name and producer = s.Stencil.name in
      match Hashtbl.find_all consumers producer with
      | [ v ]
        when (not (List.exists (String.equal producer) p.Program.outputs))
             && Stencil.boundaries_agree u.s ~reads_a:u.reads v.s ~reads_b:v.reads ->
          let dag = substitute p ~producer u.dag v.dag in
          if Dag.work_size dag <= max_body_size then Some (u, v, dag) else None
      | _ -> None
    in
    let order = Program.topological_of_reads p (List.map (fun n -> (n.s, n.reads)) nodes) in
    match List.find_map candidate order with
    | None -> (nodes, List.rev fused_pairs)
    | Some (u, v, dag) ->
        let producer = u.s.Stencil.name in
        let fused = node ~fused:true (merge ~producer u.s v.s) dag in
        let nodes =
          List.filter_map
            (fun n -> if n == u then None else if n == v then Some fused else Some n)
            nodes
        in
        go nodes ((producer, v.s.Stencil.name) :: fused_pairs)
  in
  let nodes, fused_pairs =
    go (List.map (fun s -> node ~fused:false s (Dag.of_body s.Stencil.body)) p.Program.stencils) []
  in
  let stencils =
    List.map (fun n -> if n.fused then { n.s with Stencil.body = Dag.extract n.dag } else n.s) nodes
  in
  let p' = { p with Program.stencils } in
  if fused_pairs <> [] then Program.validate_exn p';
  ( p',
    {
      fused_pairs;
      stencils_before = List.length p.Program.stencils;
      stencils_after = List.length stencils;
    } )

let interior_radius (p : Program.t) = Sf_analysis.Influence.max_radius p

let equivalence_radius ~original ~fused =
  max (interior_radius original) (interior_radius fused)

let equivalence_radii ~original ~fused =
  List.map2 max (Sf_analysis.Influence.radius original) (Sf_analysis.Influence.radius fused)

let max_probe_cells = 65536

let interior_agrees ~original p =
  let shape = original.Program.shape in
  if p.Program.shape <> shape || Program.cells original > max_probe_cells then None
  else
    let radii = equivalence_radii ~original ~fused:p in
    if not (List.for_all2 (fun e r -> e > 2 * r) shape radii) then None
    else begin
      let module Interp = Sf_reference.Interp in
      let interior (r : Interp.result) =
        (Sf_reference.Tensor.slice r.Interp.tensor ~origin:radii
           ~extent:(List.map2 (fun e r -> e - (2 * r)) shape radii))
          .Sf_reference.Tensor.data
      in
      let close a b =
        (Float.is_nan a && Float.is_nan b)
        || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a)
      in
      let inputs = Interp.random_inputs original in
      let results = Interp.run p ~inputs in
      Some
        (List.for_all
           (fun (name, r) ->
             match List.assoc_opt name results with
             | Some r' -> Array.for_all2 close (interior r) (interior r')
             | None -> false)
           (Interp.run original ~inputs))
    end
