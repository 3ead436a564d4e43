open Sf_ir

type t = {
  profile : Expr.op_profile;
  flops_per_cell : int;
  work_profile : Expr.op_profile;
  tree_profile : Expr.op_profile;
  work_flops_per_cell : int;
  tree_flops_per_cell : int;
  read_elements : int;
  written_elements : int;
  read_bytes : int;
  written_bytes : int;
}

let of_program (p : Program.t) =
  let profile =
    List.fold_left
      (fun acc s -> Expr.add_profile acc (Stencil.op_profile s))
      Expr.empty_profile p.Program.stencils
  in
  let work_profile =
    List.fold_left
      (fun acc s -> Expr.add_profile acc (Stencil.work_profile s))
      Expr.empty_profile p.Program.stencils
  in
  let tree_profile =
    List.fold_left
      (fun acc s -> Expr.sat_add_profile acc (Stencil.tree_profile s))
      Expr.empty_profile p.Program.stencils
  in
  let flops_per_cell = Expr.flop_count profile in
  let shape = p.Program.shape in
  let read_elements, read_bytes =
    List.fold_left
      (fun (elems, bytes) f ->
        (elems + Field.num_elements f ~shape, bytes + Field.size_bytes f ~shape))
      (0, 0) p.Program.inputs
  in
  let cells = Program.cells p in
  let written_elements = List.length p.Program.outputs * cells in
  let written_bytes = written_elements * Dtype.size_bytes p.Program.dtype in
  {
    profile;
    flops_per_cell;
    work_profile;
    tree_profile;
    work_flops_per_cell = Expr.flop_count work_profile;
    tree_flops_per_cell =
      Expr.sat_add
        (Expr.sat_add tree_profile.Expr.adds tree_profile.Expr.muls)
        (Expr.sat_add tree_profile.Expr.divs tree_profile.Expr.sqrts);
    read_elements;
    written_elements;
    read_bytes;
    written_bytes;
  }

let flops t p = float_of_int t.flops_per_cell *. float_of_int (Program.cells p)
let total_flops p = flops (of_program p) p
let total_operands t = t.read_elements + t.written_elements
let total_bytes t = t.read_bytes + t.written_bytes

let ai_ops_per_operand p =
  let t = of_program p in
  flops t p /. float_of_int (total_operands t)

let ai_ops_per_byte p =
  let t = of_program p in
  flops t p /. float_of_int (total_bytes t)

let streaming_operands_per_cycle (p : Program.t) =
  let full_rank = Program.rank p in
  let streaming_inputs =
    List.length (List.filter (fun f -> Field.rank f = full_rank) p.Program.inputs)
  in
  (streaming_inputs + List.length p.Program.outputs) * p.Program.vector_width

let streaming_bytes_per_second ~frequency_hz (p : Program.t) =
  let bytes_per_cycle =
    streaming_operands_per_cycle p * Dtype.size_bytes p.Program.dtype
  in
  float_of_int bytes_per_cycle *. frequency_hz

let pp fmt t =
  Format.fprintf fmt "%d flops/cell; reads %d operands (%d B), writes %d operands (%d B)"
    t.flops_per_cell t.read_elements t.read_bytes t.written_elements t.written_bytes
