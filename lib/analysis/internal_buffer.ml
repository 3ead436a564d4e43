open Sf_ir

type t = {
  field : string;
  offsets : int list list;
  min_flat : int;
  max_flat : int;
  size_elements : int;
  init_elements : int;
  init_words : int;
  register_elements : int;
}

let flatten_offset ~shape offsets =
  if List.length offsets <> List.length shape then
    invalid_arg "Internal_buffer.flatten_offset: rank mismatch";
  let rec go shape offsets =
    match (shape, offsets) with
    | [], [] -> 0
    | _ :: shape_rest, o :: offsets_rest ->
        let stride = List.fold_left ( * ) 1 shape_rest in
        (o * stride) + go shape_rest offsets_rest
    | _, _ -> assert false
  in
  go shape offsets

let of_accesses (p : Program.t) accesses =
  let full_rank = Program.rank p in
  let w = p.Program.vector_width in
  List.filter_map
    (fun field ->
      let offsets = Stencil.offsets_read accesses field in
      (* A checked program reads each field with as many offsets as the
         field has axes; only an input can have fewer than the program. *)
      if List.length (List.hd offsets) <> full_rank then None
      else
        let flats = List.map (flatten_offset ~shape:p.Program.shape) offsets in
        let min_flat = List.fold_left min (List.hd flats) flats in
        let max_flat = List.fold_left max (List.hd flats) flats in
        let buffered = List.length offsets > 1 in
        let size_elements = if buffered then max_flat - min_flat + w else 0 in
        (* [init_elements] is the number of extra input elements (beyond the
           one-element-per-output streaming rate) that must arrive before
           the first output: the shift register must be full (size - 1,
           since the newest element is consumed the same cycle) and the
           furthest-ahead access must have arrived (max_flat). This is the
           paper's initialization phase of max{B_i} up to the -1. *)
        let init_elements =
          if buffered then max (size_elements - 1) (max 0 max_flat) else max 0 max_flat
        in
        let init_words = Sf_support.Util.ceil_div init_elements (max 1 w) in
        let register_elements = (init_words * w) + w + max 0 (-min_flat) in
        Some
          { field; offsets; min_flat; max_flat; size_elements; init_elements; init_words;
            register_elements })
    (Stencil.fields_read accesses)

(* [ceil (max init / W) = max (ceil (init / W))]: rounding up is monotone. *)
let init_cycles buffers = List.fold_left (fun acc b -> max acc b.init_words) 0 buffers
let fill_step all b = init_cycles all - b.init_words
let tap b flat = flat + max 0 (-b.min_flat)

let pp fmt b =
  Format.fprintf fmt "%s: %d accesses, flat span [%d, %d], size %d, init %d" b.field
    (List.length b.offsets) b.min_flat b.max_flat b.size_elements b.init_elements
