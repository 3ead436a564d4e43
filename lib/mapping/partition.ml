open Sf_ir
module Resource = Sf_models.Resource

type t = {
  num_devices : int;
  device_of : (string * int) list;
  replicated_inputs : (string * int list) list;
  cross_edges : ((string * string) * (int * int)) list;
  per_device_usage : Resource.usage list;
}

let device_lookup t name =
  match List.assoc_opt name t.device_of with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Partition: stencil %s is not assigned" name)

let make checked ~device_of ~per_device_usage =
  let p = Program.Checked.program checked in
  let num_devices = List.length per_device_usage in
  let misplaced =
    List.find_map
      (fun (s : Stencil.t) ->
        match List.assoc_opt s.Stencil.name device_of with
        | None -> Some (Printf.sprintf "stencil %s is not placed" s.Stencil.name)
        | Some d when d < 0 || d >= num_devices ->
            Some
              (Printf.sprintf "stencil %s placed on device %d of %d" s.Stencil.name d num_devices)
        | Some _ -> None)
      p.Program.stencils
  in
  match misplaced with
  | Some m -> Error (Sf_support.Diag.error ~code:Sf_support.Diag.Code.partition_invariant m)
  | None ->
      let lookup = Hashtbl.find (Hashtbl.of_seq (List.to_seq device_of)) in
      let replicated_inputs =
        List.map
          (fun (f : Field.t) ->
            let consumers = Program.Checked.consumers checked f.Field.name in
            (f.Field.name, List.sort_uniq compare (List.map lookup consumers)))
          p.Program.inputs
      in
      let cross_edges =
        List.concat_map
          (fun (s : Stencil.t) ->
            let dst = s.Stencil.name in
            List.filter_map
              (fun field ->
                match Program.Checked.find checked field with
                | Program.Op _ when lookup field <> lookup dst ->
                    Some ((field, dst), (lookup field, lookup dst))
                | Program.Op _ | Program.Input _ -> None)
              (Program.Checked.reads checked dst))
          p.Program.stencils
      in
      Ok { num_devices; device_of; replicated_inputs; cross_edges; per_device_usage }

(* Every stencil on device 0 of 1 is placed. *)
let single_device analysis =
  let checked = Sf_analysis.Delay_buffer.checked analysis in
  let p = Program.Checked.program checked in
  let device_of = List.map (fun s -> (s.Stencil.name, 0)) p.Program.stencils in
  Result.get_ok (make checked ~device_of ~per_device_usage:[ Resource.of_analysis analysis ])

let greedy ?(ceiling = 0.85) ?(max_devices = 8) ~device checked =
  (* Per-device fixed overhead: the memory interface for the streams that
     terminate there. Approximated by charging the whole program's
     interface cost to every device — conservative but simple. *)
  let order = Program.Checked.order checked in
  let exception Unsplittable of string in
  try
    let assignments = ref [] in
    let device_usages = ref [] in
    let current = ref Resource.zero in
    let current_id = ref 0 in
    List.iter
      (fun (s : Stencil.t) ->
        let u = Resource.of_unit checked s in
        if not (Resource.fits ~ceiling device u) then
          raise
            (Unsplittable
               (Printf.sprintf "stencil %s alone exceeds device resources" s.Stencil.name));
        let candidate = Resource.add !current u in
        if Resource.fits ~ceiling device candidate then current := candidate
        else begin
          device_usages := !current :: !device_usages;
          incr current_id;
          if !current_id >= max_devices then
            raise
              (Unsplittable
                 (Printf.sprintf "program needs more than %d devices" max_devices));
          current := u
        end;
        assignments := (s.Stencil.name, !current_id) :: !assignments)
      order;
    device_usages := !current :: !device_usages;
    make checked ~device_of:(List.rev !assignments) ~per_device_usage:(List.rev !device_usages)
  with Unsplittable m -> Error (Sf_support.Diag.error ~code:Sf_support.Diag.Code.partition m)

let contiguous_checked ~devices checked =
  if devices < 1 then
    Error
      (Sf_support.Diag.errorf ~code:Sf_support.Diag.Code.partition
         "contiguous partition needs at least 1 device, got %d" devices)
  else begin
    let order = Array.of_list (Program.Checked.order checked) in
    let n = Array.length order in
    let d = min devices n in
    (* Stencil i of n goes to segment i*d/n: even contiguous chunks of
       the topological order, so every cut is a chain hop. *)
    let device_of =
      List.init n (fun i -> (order.(i).Stencil.name, i * d / n))
    in
    let per_device = Array.make d Resource.zero in
    Array.iteri
      (fun i s ->
        let k = i * d / n in
        per_device.(k) <- Resource.add per_device.(k) (Resource.of_unit checked s))
      order;
    make checked ~device_of ~per_device_usage:(Array.to_list per_device)
  end

let contiguous ~devices p = contiguous_checked ~devices (Program.check_exn p)

let placement_fn t name = device_lookup t name

let hop_demand_bytes_per_cycle (p : Program.t) t ~hop =
  let element_bytes = Dtype.size_bytes p.Program.dtype in
  let word_bytes = p.Program.vector_width * element_bytes in
  List.fold_left
    (fun acc ((_, _), (src, dst)) ->
      let lo = min src dst and hi = max src dst in
      if hop >= lo && hop < hi then acc +. float_of_int word_bytes else acc)
    0. t.cross_edges

let network_feasible (p : Program.t) t ~device =
  let capacity = Sf_models.Device.link_bytes_per_cycle device in
  List.for_all
    (fun hop -> hop_demand_bytes_per_cycle p t ~hop <= capacity)
    (Sf_support.Util.range (max 0 (t.num_devices - 1)))

let pp fmt t =
  Format.fprintf fmt "partition over %d device(s):@." t.num_devices;
  List.iter (fun (s, d) -> Format.fprintf fmt "  %s -> device %d@." s d) t.device_of;
  List.iter
    (fun ((u, v), (d1, d2)) -> Format.fprintf fmt "  remote stream %s -> %s (%d -> %d)@." u v d1 d2)
    t.cross_edges
