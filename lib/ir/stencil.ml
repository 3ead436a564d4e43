type t = {
  name : string;
  body : Expr.body;
  boundary : (string * Boundary.t) list;
  shrink : bool;
}

let make ?(boundary = []) ?(shrink = false) ~name body = { name; body; boundary; shrink }

let boundary_for t field =
  match List.assoc_opt field t.boundary with Some b -> b | None -> Boundary.default

let accesses t = Dag.accesses (Dag.of_body t.body)

let fields_read accesses =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (f, _) ->
      if Hashtbl.mem seen f then None
      else begin
        Hashtbl.add seen f ();
        Some f
      end)
    accesses

let input_fields t = fields_read (accesses t)

let offsets_read accesses field =
  List.filter_map (fun (f, offs) -> if String.equal f field then Some offs else None) accesses

let accesses_of_field t field = offsets_read (accesses t) field

let op_profile t = Expr.body_op_profile t.body
let work_profile t = Dag.work_profile (Dag.of_body t.body)
let tree_profile t = Dag.tree_profile (Dag.of_body t.body)

(* Compare only on fields both read; fields read by one stencil alone
   cannot conflict. *)
let boundaries_agree a ~reads_a b ~reads_b =
  a.shrink = b.shrink
  && List.for_all
       (fun f ->
         (not (List.exists (String.equal f) reads_b))
         || Boundary.equal (boundary_for a f) (boundary_for b f))
       reads_a

let equal_boundaries a b =
  boundaries_agree a ~reads_a:(input_fields a) b ~reads_b:(input_fields b)

let pp fmt t = Format.fprintf fmt "%s = %s" t.name (Expr.body_to_string t.body)
