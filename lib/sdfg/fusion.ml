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

(* The fused body as a hash-consed DAG. Substitute u's body (shifted by
   the access offset) for each access to the producer. Full-rank fields
   shift componentwise; lower-dimensional fields shift only on the axes
   they span. Substitution happens on the DAG: the shifted producer body
   is built once per distinct offset, shifted copies share whatever nodes
   coincide (constants, overlapping taps), and [Dag.extract] afterwards
   turns that sharing back into let bindings — so fusion no longer loses
   the sharing that the paper delegates to "the downstream compiler's
   CSE". *)
let fused_dag (p : Program.t) (u : Stencil.t) (v : Stencil.t) ~producer =
  let u_root = Dag.of_body u.Stencil.body in
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
            u_root
        in
        Hashtbl.replace shifted delta d;
        d
  in
  Dag.map_accesses
    (fun ~field ~offsets ->
      if String.equal field producer then shift_u offsets
      else Dag.access ~field ~offsets)
    (Dag.of_body v.Stencil.body)

let fuse_pair (p : Program.t) ~producer ~consumer =
  (match can_fuse p ~producer ~consumer with
  | Ok () -> ()
  | Error m -> invalid_arg ("Fusion.fuse_pair: " ^ m));
  let u = Option.get (Program.find_stencil p producer) in
  let v = Option.get (Program.find_stencil p consumer) in
  let fused_body = Dag.extract (fused_dag p u v ~producer) in
  let merged_boundary =
    let from_u =
      List.filter (fun (f, _) -> not (List.mem_assoc f v.Stencil.boundary)) u.Stencil.boundary
    in
    v.Stencil.boundary @ from_u
  in
  let fused =
    Stencil.make
      ~boundary:
        (List.filter (fun (f, _) -> not (String.equal f producer)) merged_boundary)
      ~shrink:v.Stencil.shrink ~name:consumer fused_body
  in
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

let fuse_all ?(max_body_size = max_int) (p : Program.t) =
  let before = List.length p.Program.stencils in
  let rec go p fused =
    let candidate =
      List.find_map
        (fun (s : Stencil.t) ->
          let producer = s.Stencil.name in
          match Program.consumers p producer with
          | [ consumer ] -> (
              match can_fuse p ~producer ~consumer with
              | Ok () ->
                  let u = Option.get (Program.find_stencil p producer) in
                  let v = Option.get (Program.find_stencil p consumer) in
                  (* Size the candidate by the *work* of the actual fused
                     DAG — each shared node counted once — instead of the
                     historical inlined-tree estimate, which rejected
                     fusions whose blow-up is purely textual. Hash-consing
                     makes building the candidate body cheap, and a later
                     [fuse_pair] on the same edge replays it from the memo
                     table. *)
                  let size = Dag.work_size (fused_dag p u v ~producer) in
                  if size <= max_body_size then Some (producer, consumer) else None
              | Error _ -> None)
          | _ -> None)
        (Program.topological_stencils p)
    in
    match candidate with
    | None -> (p, List.rev fused)
    | Some (producer, consumer) ->
        go (fuse_pair p ~producer ~consumer) ((producer, consumer) :: fused)
  in
  let p', fused_pairs = go p [] in
  (p', { fused_pairs; stencils_before = before; stencils_after = List.length p'.Program.stencils })

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
