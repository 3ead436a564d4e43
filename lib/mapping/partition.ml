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

let derive_metadata checked device_of num_devices per_device_usage =
  let p = Program.Checked.program checked in
  let lookup = Hashtbl.find (Hashtbl.of_seq (List.to_seq device_of)) in
  let replicated_inputs =
    List.map
      (fun (f : Field.t) ->
        let consumers = Program.Checked.consumers checked f.Field.name in
        let devices = List.sort_uniq compare (List.map lookup consumers) in
        (f.Field.name, devices))
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
  { num_devices; device_of; replicated_inputs; cross_edges; per_device_usage }

let single_device checked =
  let p = Program.Checked.program checked in
  let device_of = List.map (fun s -> (s.Stencil.name, 0)) p.Program.stencils in
  derive_metadata checked device_of 1 [ Resource.of_checked checked ]

let greedy ?(ceiling = 0.85) ?(max_devices = 8) ~device (p : Program.t) =
  let checked = Program.check_exn p in
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
    let device_of = List.rev !assignments in
    Ok (derive_metadata checked device_of (!current_id + 1) (List.rev !device_usages))
  with Unsplittable m -> Error (Sf_support.Diag.error ~code:Sf_support.Diag.Code.partition m)

let contiguous ~devices (p : Program.t) =
  if devices < 1 then
    Error
      (Sf_support.Diag.errorf ~code:Sf_support.Diag.Code.partition
         "contiguous partition needs at least 1 device, got %d" devices)
  else begin
    let checked = Program.check_exn p in
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
    Ok (derive_metadata checked device_of d (Array.to_list per_device))
  end

let placement_fn t name = device_lookup t name

let validate (p : Program.t) t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  List.iter
    (fun (s : Stencil.t) ->
      match List.assoc_opt s.Stencil.name t.device_of with
      | None -> err "stencil %s unassigned" s.Stencil.name
      | Some d when d < 0 || d >= t.num_devices ->
          err "stencil %s assigned to out-of-range device %d" s.Stencil.name d
      | Some _ -> ())
    p.Program.stencils;
  if !errors = [] then begin
    List.iter
      (fun (s : Stencil.t) ->
        let dst = s.Stencil.name in
        let dd = List.assoc dst t.device_of in
        List.iter
          (fun field ->
            match Program.find_stencil p field with
            | Some _ ->
                let sd = List.assoc field t.device_of in
                let listed = List.mem_assoc (field, dst) t.cross_edges in
                if sd <> dd && not listed then
                  err "edge %s -> %s crosses devices but is not listed" field dst;
                if sd = dd && listed then err "edge %s -> %s listed but does not cross" field dst
            | None -> (
                match List.assoc_opt field t.replicated_inputs with
                | Some devices when List.mem dd devices -> ()
                | Some _ | None ->
                    if Program.is_input p field then
                      err "input %s is not replicated on device %d for %s" field dd dst))
          (Stencil.input_fields s))
      p.Program.stencils
  end;
  match List.rev !errors with [] -> Ok () | errs -> Error errs

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

(* Dominant utilization fraction of a usage on the device. *)
let dominant_utilization device usage =
  let a, f, m, d = Sf_models.Resource.utilization device usage in
  Float.max (Float.max a f) (Float.max m d)

let balanced ?(ceiling = 0.85) ?(max_devices = 8) ~device (p : Program.t) =
  let checked = Program.check_exn p in
  let order = Array.of_list (Program.Checked.order checked) in
  let n = Array.length order in
  let usages = Array.map (Resource.of_unit checked) order in
  (* prefix.(i) = combined usage of stencils 0..i-1. *)
  let prefix = Array.make (n + 1) Resource.zero in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- Resource.add prefix.(i) usages.(i)
  done;
  let minus a b =
    {
      Resource.alm = a.Resource.alm - b.Resource.alm;
      ff = a.Resource.ff - b.Resource.ff;
      m20k = a.Resource.m20k - b.Resource.m20k;
      dsp = a.Resource.dsp - b.Resource.dsp;
    }
  in
  let segment_cost i j = dominant_utilization device (minus prefix.(j) prefix.(i)) in
  (* Minimum feasible device count, then balance across exactly that
     many. dp.(j).(k): best worst-segment cost splitting the first j
     stencils into k segments; cut.(j).(k) records the split point. *)
  let feasible d =
    let dp = Array.make_matrix (n + 1) (d + 1) infinity in
    let cut = Array.make_matrix (n + 1) (d + 1) (-1) in
    dp.(0).(0) <- 0.;
    for j = 1 to n do
      for k = 1 to min d j do
        for i = k - 1 to j - 1 do
          let candidate = Float.max dp.(i).(k - 1) (segment_cost i j) in
          if candidate < dp.(j).(k) then begin
            dp.(j).(k) <- candidate;
            cut.(j).(k) <- i
          end
        done
      done
    done;
    if dp.(n).(d) <= ceiling then Some (dp.(n).(d), cut) else None
  in
  let rec first_feasible d =
    if d > max_devices then
      Error
        (Sf_support.Diag.errorf ~code:Sf_support.Diag.Code.partition
           "program needs more than %d devices" max_devices)
    else match feasible d with Some (cost, cut) -> Ok (d, cost, cut) | None -> first_feasible (d + 1)
  in
  match first_feasible 1 with
  | Error m -> Error m
  | Ok (devices, _, cut) ->
      (* Recover the cut points. *)
      let boundaries = Array.make (devices + 1) 0 in
      boundaries.(devices) <- n;
      let rec back j k = if k > 0 then begin
          boundaries.(k - 1) <- cut.(j).(k);
          back cut.(j).(k) (k - 1)
        end
      in
      back n devices;
      let device_of =
        List.concat
          (List.map
             (fun k ->
               List.map
                 (fun idx -> (order.(idx).Stencil.name, k))
                 (List.filter
                    (fun idx -> idx >= boundaries.(k) && idx < boundaries.(k + 1))
                    (Sf_support.Util.range n)))
             (Sf_support.Util.range devices))
      in
      let per_device =
        List.map
          (fun k -> minus prefix.(boundaries.(k + 1)) prefix.(boundaries.(k)))
          (Sf_support.Util.range devices)
      in
      Ok (derive_metadata checked device_of devices per_device)
