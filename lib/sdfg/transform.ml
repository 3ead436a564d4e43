open Sf_ir

(* The program an SDFG holds, checked once: the order and every fact a
   transform needs come from that check. *)
let checked_of_sdfg t =
  match Sdfg.extract_checked t with
  | Ok c -> c
  | Error m -> invalid_arg ("Transform: cannot recover stencil program: " ^ m)

let map_fission (t : Sdfg.t) =
  let checked = checked_of_sdfg t in
  let p = Program.Checked.program checked in
  let full_shape = p.Program.shape in
  let containers =
    List.map
      (fun (f : Field.t) ->
        {
          Sdfg.cname = f.Field.name;
          dtype = f.Field.dtype;
          extent = Field.extent f ~shape:full_shape;
          storage = Sdfg.Off_chip;
          transient = false;
          axes_hint = Some f.Field.axes;
        })
      p.Program.inputs
    @ List.map
        (fun (s : Stencil.t) ->
          {
            Sdfg.cname = s.Stencil.name;
            dtype = p.Program.dtype;
            extent = full_shape;
            storage = Sdfg.Off_chip;
            axes_hint = None;
            (* Temporaries introduced by fission are transient; declared
               program outputs stay externally visible. *)
            transient = not (List.exists (String.equal s.Stencil.name) p.Program.outputs);
          })
        p.Program.stencils
  in
  let state_of_stencil (s : Stencil.t) =
    let g = ref Sdfg.empty_graph in
    let node n =
      let g', id = Sdfg.add_node !g n in
      g := g';
      id
    in
    let sid = node (Sdfg.Stencil_node s) in
    List.iter
      (fun field ->
        let aid = node (Sdfg.Access field) in
        g := Sdfg.add_edge !g ~src:aid ~dst:sid ~data:field ~subset:"[full]")
      (Stencil.input_fields s);
    let out = node (Sdfg.Access s.Stencil.name) in
    g := Sdfg.add_edge !g ~src:sid ~dst:out ~data:s.Stencil.name ~subset:"[full]";
    { Sdfg.slabel = "state_" ^ s.Stencil.name; body = !g }
  in
  {
    Sdfg.name = t.Sdfg.name;
    containers =
      containers
      @ [
          {
            Sdfg.cname = Printf.sprintf "__sym_W_%d" p.Program.vector_width;
            dtype = Dtype.I32;
            extent = [];
            storage = Sdfg.On_chip;
            transient = true;
            axes_hint = None;
          };
        ];
    states = List.map state_of_stencil (Program.Checked.order checked);
  }

let state_fusion (t : Sdfg.t) = Sdfg.of_checked (checked_of_sdfg t)

let nest_dim (p : Program.t) ~extent =
  if Program.rank p >= 3 then
    invalid_arg "Transform.nest_dim: programs are limited to 3 dimensions";
  if extent <= 0 then invalid_arg "Transform.nest_dim: non-positive extent";
  let old_rank = Program.rank p in
  let shape = extent :: p.Program.shape in
  (* Original inputs keep their data but now span only the inner axes. *)
  let inputs =
    List.map
      (fun (f : Field.t) -> { f with Field.axes = List.map (fun a -> a + 1) f.Field.axes })
      p.Program.inputs
  in
  (* Accesses to stencil-produced fields become full new-rank accesses
     with a leading 0; accesses to inputs are unchanged. *)
  let lift_expr e =
    Expr.map_accesses
      (fun ~field ~offsets ->
        match Program.find_stencil p field with
        | Some _ when List.length offsets = old_rank -> Expr.Access { field; offsets = 0 :: offsets }
        | Some _ | None -> Expr.Access { field; offsets })
      e
  in
  let stencils =
    List.map
      (fun (s : Stencil.t) ->
        let body =
          {
            Expr.lets = List.map (fun (n, e) -> (n, lift_expr e)) s.Stencil.body.Expr.lets;
            result = lift_expr s.Stencil.body.Expr.result;
          }
        in
        { s with Stencil.body })
      p.Program.stencils
  in
  let p' = { p with Program.shape; inputs; stencils } in
  Program.validate_exn p';
  p'
