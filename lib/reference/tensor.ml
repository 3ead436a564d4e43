type t = { extent : int list; data : float array }

let product = List.fold_left ( * ) 1

let create ?(init = 0.) extent =
  List.iter (fun e -> if e <= 0 then invalid_arg "Tensor.create: non-positive extent") extent;
  { extent; data = Array.make (product extent) init }

let num_elements t = Array.length t.data
let rank t = List.length t.extent

let flat_index t index =
  if List.length index <> rank t then invalid_arg "Tensor.flat_index: rank mismatch";
  let rec go extent index =
    match (extent, index) with
    | [], [] -> 0
    | e :: extent_rest, i :: index_rest ->
        if i < 0 || i >= e then invalid_arg "Tensor.flat_index: index out of bounds";
        (i * product extent_rest) + go extent_rest index_rest
    | _, _ -> assert false
  in
  go t.extent index

let in_bounds t index =
  List.length index = rank t && List.for_all2 (fun i e -> i >= 0 && i < e) index t.extent

let get t index = t.data.(flat_index t index)
let set t index v = t.data.(flat_index t index) <- v
let get_flat t i = t.data.(i)
let set_flat t i v = t.data.(i) <- v

let of_array extent data =
  if Array.length data <> product extent then invalid_arg "Tensor.of_array: length mismatch";
  { extent; data = Array.copy data }

let copy t = { t with data = Array.copy t.data }
let fill t v = Array.fill t.data 0 (Array.length t.data) v

let map2 f a b =
  if a.extent <> b.extent then invalid_arg "Tensor.map2: extent mismatch";
  { a with data = Array.map2 f a.data b.data }

let max_abs_diff a b =
  if a.extent <> b.extent then invalid_arg "Tensor.max_abs_diff: extent mismatch";
  let worst = ref 0. in
  Array.iteri
    (fun i x ->
      let d = Float.abs (x -. b.data.(i)) in
      if d > !worst then worst := d)
    a.data;
  !worst

let pp fmt t =
  Format.fprintf fmt "tensor[%s]"
    (Sf_support.Util.string_concat_map "x" string_of_int t.extent)

let iterate_region extent f =
  let rank = List.length extent in
  let index = Array.make rank 0 in
  let extents = Array.of_list extent in
  let cells = product extent in
  for _ = 1 to cells do
    f (Array.to_list index);
    let rec bump d =
      if d >= 0 then begin
        index.(d) <- index.(d) + 1;
        if index.(d) = extents.(d) then begin
          index.(d) <- 0;
          bump (d - 1)
        end
      end
    in
    bump (rank - 1)
  done

(* Row-major, so the cell visited [i]th is stored at flat index [i]. *)
let of_fn extent f =
  let t = create extent in
  let i = ref 0 in
  iterate_region extent (fun index ->
      t.data.(!i) <- f index;
      incr i);
  t

let slice t ~origin ~extent =
  if List.length origin <> rank t || List.length extent <> rank t then
    invalid_arg "Tensor.slice: rank mismatch";
  List.iteri
    (fun d (o, e) ->
      let bound = List.nth t.extent d in
      if o < 0 || e <= 0 || o + e > bound then invalid_arg "Tensor.slice: region out of bounds")
    (List.combine origin extent);
  let out = create extent in
  iterate_region extent (fun idx -> set out idx (get t (List.map2 ( + ) origin idx)));
  out

let blit_region ~src ~src_origin ~dst ~dst_origin ~extent =
  iterate_region extent (fun idx ->
      set dst (List.map2 ( + ) dst_origin idx) (get src (List.map2 ( + ) src_origin idx)))

let fingerprint t =
  let module F = Sf_support.Fingerprint in
  F.digest (fun st ->
      F.add_list st F.add_int t.extent;
      F.add_int st (Array.length t.data);
      Array.iter (F.add_float st) t.data)
