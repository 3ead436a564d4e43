module G = Sf_support.Dgraph.Make (String)

type node = Input of Field.t | Op of Stencil.t

type t = {
  name : string;
  shape : int list;
  dtype : Dtype.t;
  vector_width : int;
  inputs : Field.t list;
  outputs : string list;
  stencils : Stencil.t list;
}

let make ?(dtype = Dtype.F32) ?(vector_width = 1) ~name ~shape ~inputs ~outputs stencils =
  { name; shape; dtype; vector_width; inputs; outputs; stencils }

let rank t = List.length t.shape
let cells t = List.fold_left ( * ) 1 t.shape

let strides t =
  (* Row major: the stride of each axis is the product of the extents of
     the axes inside it; the innermost axis has stride 1. *)
  let rec go = function
    | [] -> []
    | _ :: rest -> List.fold_left ( * ) 1 rest :: go rest
  in
  go t.shape

let find_stencil t name = List.find_opt (fun s -> String.equal s.Stencil.name name) t.stencils
let find_input t name = List.find_opt (fun f -> String.equal f.Field.name name) t.inputs
let is_input t name = Option.is_some (find_input t name)

let field_axes t name =
  match find_input t name with
  | Some f -> f.Field.axes
  | None -> (
      match find_stencil t name with
      | Some _ -> Sf_support.Util.range (rank t)
      | None -> raise Not_found)

(* [reads] pairs every stencil, in order, with its input fields. *)
let graph_of_reads t reads =
  let g = List.fold_left (fun g f -> G.add_vertex g f.Field.name (Input f)) G.empty t.inputs in
  let g = List.fold_left (fun g (s, _) -> G.add_vertex g s.Stencil.name (Op s)) g reads in
  List.fold_left
    (fun g (s, inputs) ->
      List.fold_left
        (fun g src ->
          if G.mem_vertex g src then G.add_edge g ~src ~dst:s.Stencil.name () else g)
        g inputs)
    g reads

let stencil_reads t = List.map (fun s -> (s, Stencil.input_fields s)) t.stencils

let consumers t field =
  List.filter_map
    (fun s ->
      if List.exists (String.equal field) (Stencil.input_fields s) then Some s.Stencil.name
      else None)
    t.stencils

type checked = {
  program : t;
  order : Stencil.t list;
  g : (node, unit) G.t;
  full_axes : int list;
  accesses : (string, (string * int list) list) Hashtbl.t;
}

let check t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let d = rank t in
  if d < 1 || d > 3 then err "program %s: iteration space must have 1-3 dimensions" t.name;
  List.iter (fun ext -> if ext <= 0 then err "program %s: non-positive extent %d" t.name ext) t.shape;
  if t.vector_width < 1 then err "program %s: vector width must be positive" t.name;
  (match List.rev t.shape with
  | innermost :: _ when t.vector_width > 0 && innermost mod t.vector_width <> 0 ->
      err "program %s: vector width %d does not divide innermost extent %d" t.name
        t.vector_width innermost
  | _ -> ());
  if t.outputs = [] then err "program %s: no outputs declared" t.name;
  (* Name uniqueness across inputs and stencils. The first node of a name
     is kept, an input before any stencil, so the rank checks below agree
     with [field_axes] even on a program with duplicates. *)
  let nodes = Hashtbl.create 64 in
  List.iter
    (fun (n, node) ->
      if Hashtbl.mem nodes n then err "duplicate name %s" n else Hashtbl.add nodes n node)
    (List.map (fun f -> (f.Field.name, Input f)) t.inputs
    @ List.map (fun s -> (s.Stencil.name, Op s)) t.stencils);
  List.iter
    (fun f ->
      match Field.validate f ~full_rank:d with Ok () -> () | Error m -> err "%s" m)
    t.inputs;
  (* Access resolution: every access names a known field and matches its
     rank; let-bound variables resolve in order; boundary conditions refer
     to read fields. Each body's accesses are collected once, for these
     checks, the dependency graph and the facts returned. *)
  let accesses = List.map (fun s -> (s, Stencil.accesses s)) t.stencils in
  let reads = List.map (fun (s, a) -> (s, Stencil.fields_read a)) accesses in
  List.iter
    (fun (s, inputs_read) ->
      let body = s.Stencil.body in
      let bound = Hashtbl.create 8 in
      let check_expr expr =
        List.iter
          (fun v ->
            if not (Hashtbl.mem bound v) then
              err "stencil %s: unbound variable %s (not a declared field or prior let)"
                s.Stencil.name v)
          (Expr.free_vars expr);
        List.iter
          (fun (field, offsets) ->
            match Hashtbl.find_opt nodes field with
            | Some node ->
                let want = match node with Input f -> List.length f.Field.axes | Op _ -> d in
                let got = List.length offsets in
                if want <> got then
                  err "stencil %s: access %s has %d offsets but the field spans %d axes"
                    s.Stencil.name field got want
            | None -> err "stencil %s: access to undeclared field %s" s.Stencil.name field)
          (Expr.accesses expr)
      in
      List.iter
        (fun (v, e) ->
          check_expr e;
          Hashtbl.replace bound v ())
        body.Expr.lets;
      check_expr body.Expr.result;
      if List.exists (String.equal s.Stencil.name) inputs_read then
        err "stencil %s: reads its own output (cycle)" s.Stencil.name;
      List.iter
        (fun (f, _) ->
          if not (List.exists (String.equal f) inputs_read) then
            err "stencil %s: boundary condition for unread field %s" s.Stencil.name f)
        s.Stencil.boundary)
    reads;
  let stencil_names = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace stencil_names s.Stencil.name ()) t.stencils;
  List.iter
    (fun o -> if not (Hashtbl.mem stencil_names o) then err "declared output %s is not a stencil" o)
    t.outputs;
  (* Global structure: acyclic, and every stencil feeds some output. *)
  let sorted = ref None in
  if !errors = [] then begin
    let g = graph_of_reads t reads in
    (match G.topological_sort g with
    | Ok names ->
        let op v = match G.find_vertex_exn g v with Op s -> Some s | Input _ -> None in
        sorted := Some (g, List.filter_map op names)
    | Error cyc ->
        err "program %s: dependency cycle through {%s}" t.name (String.concat ", " cyc));
    let live = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace live v ()) (G.reachable_from (G.transpose g) t.outputs);
    List.iter
      (fun s ->
        if not (Hashtbl.mem live s.Stencil.name) then
          err "stencil %s does not contribute to any output (dead code)" s.Stencil.name)
      t.stencils
  end;
  match (List.rev !errors, !sorted) with
  | [], Some (g, order) ->
      let by_name = Hashtbl.create 64 in
      List.iter (fun (s, a) -> Hashtbl.replace by_name s.Stencil.name a) accesses;
      Ok { program = t; order; g; full_axes = Sf_support.Util.range d; accesses = by_name }
  | errs, _ -> Error errs

let check_exn t =
  match check t with Ok c -> c | Error errs -> invalid_arg (String.concat "\n" errs)

(* Names are unique in a checked program, and the graph keeps edges in
   insertion order: in-edges in read order, out-edges in program order. *)
module Checked = struct
  let program c = c.program
  let order c = c.order
  let find c name = match G.find_vertex c.g name with Some n -> n | None -> raise Not_found

  let accesses c name = Hashtbl.find c.accesses name
  let reads c name = List.map fst (G.preds c.g name)
  let axes c name = match find c name with Input f -> f.Field.axes | Op _ -> c.full_axes
  let consumers c field = List.map fst (G.succs c.g field)
end

let topological_of_reads t reads =
  match G.topological_sort (graph_of_reads t reads) with
  | Error cyc -> invalid_arg ("Program.topological_stencils: cycle through " ^ String.concat "," cyc)
  | Ok order ->
      (* By name; the first of a name wins, as in [find_stencil]. *)
      let named = Hashtbl.create 64 in
      List.iter (fun (s, _) -> Hashtbl.replace named s.Stencil.name s) (List.rev reads);
      List.filter_map (Hashtbl.find_opt named) order

let topological_stencils t = topological_of_reads t (stencil_reads t)

let with_vector_width t w = { t with vector_width = w }

let pp fmt t =
  Format.fprintf fmt "program %s: shape [%s], dtype %s, W=%d@." t.name
    (Sf_support.Util.string_concat_map "x" string_of_int t.shape)
    (Dtype.name t.dtype) t.vector_width;
  Format.fprintf fmt "  inputs: %s@."
    (Sf_support.Util.string_concat_map ", " (fun f -> Format.asprintf "%a" Field.pp f) t.inputs);
  List.iter
    (fun (s : Stencil.t) ->
      Format.fprintf fmt "  %a" Stencil.pp s;
      if s.Stencil.boundary <> [] then
        Format.fprintf fmt "  [bc: %s]"
          (Sf_support.Util.string_concat_map ", "
             (fun (f, b) -> f ^ "=" ^ Boundary.to_string b)
             s.Stencil.boundary);
      if s.Stencil.shrink then Format.fprintf fmt "  [shrink]";
      Format.fprintf fmt "@.")
    t.stencils;
  Format.fprintf fmt "  outputs: %s" (String.concat ", " t.outputs)

(* Content fingerprints (the cache keys of lib/toolchain/cache).

   The body digest walks the hash-consed DAG with a memo table keyed on
   node ids, so every shared subexpression is digested exactly once and
   the digest is a pure function of the body's structure: stable across
   processes, alpha-sensitive on let names, and IEEE-bit-exact on
   constants (matching the interning discipline of [Dag]). *)
module F = Sf_support.Fingerprint

let unop_tag = function Expr.Neg -> 0 | Expr.Not -> 1

let binop_tag = function
  | Expr.Add -> 0
  | Expr.Sub -> 1
  | Expr.Mul -> 2
  | Expr.Div -> 3
  | Expr.Lt -> 4
  | Expr.Le -> 5
  | Expr.Gt -> 6
  | Expr.Ge -> 7
  | Expr.Eq -> 8
  | Expr.Ne -> 9
  | Expr.And -> 10
  | Expr.Or -> 11

let dtype_tag = function Dtype.F32 -> 0 | Dtype.F64 -> 1 | Dtype.I32 -> 2 | Dtype.I64 -> 3

let body_fingerprint (b : Expr.body) =
  let memo = Hashtbl.create 64 in
  let rec fp node =
    match Hashtbl.find_opt memo (Dag.id node) with
    | Some d -> d
    | None ->
        let child st n = F.add_fingerprint st (fp n) in
        let d =
          F.digest (fun st ->
              match Dag.view node with
              | Dag.Const c ->
                  F.add_int st 0;
                  F.add_float st c
              | Dag.Access { field; offsets } ->
                  F.add_int st 1;
                  F.add_string st field;
                  F.add_list st F.add_int offsets
              | Dag.Var v ->
                  F.add_int st 2;
                  F.add_string st v
              | Dag.Unary (op, a) ->
                  F.add_int st 3;
                  F.add_int st (unop_tag op);
                  child st a
              | Dag.Binary (op, a, b) ->
                  F.add_int st 4;
                  F.add_int st (binop_tag op);
                  child st a;
                  child st b
              | Dag.Select { cond; if_true; if_false } ->
                  F.add_int st 5;
                  child st cond;
                  child st if_true;
                  child st if_false
              | Dag.Call (fn, args) ->
                  F.add_int st 6;
                  F.add_string st (Expr.func_name fn);
                  F.add_list st child args)
        in
        Hashtbl.add memo (Dag.id node) d;
        d
  in
  let lets, root = Dag.of_body_named b in
  F.digest (fun st ->
      F.add_list st
        (fun st (name, node) ->
          F.add_string st name;
          F.add_fingerprint st (fp node))
        lets;
      F.add_fingerprint st (fp root))

let boundary_fp st = function
  | Boundary.Constant c ->
      F.add_int st 0;
      F.add_float st c
  | Boundary.Copy -> F.add_int st 1

let stencil_fingerprint (s : Stencil.t) =
  F.digest (fun st ->
      F.add_string st s.Stencil.name;
      F.add_fingerprint st (body_fingerprint s.Stencil.body);
      F.add_list st
        (fun st (field, b) ->
          F.add_string st field;
          boundary_fp st b)
        s.Stencil.boundary;
      F.add_bool st s.Stencil.shrink)

let field_fp st (f : Field.t) =
  F.add_string st f.Field.name;
  F.add_int st (dtype_tag f.Field.dtype);
  F.add_list st F.add_int f.Field.axes

let fingerprint t =
  F.digest (fun st ->
      F.add_string st t.name;
      F.add_list st F.add_int t.shape;
      F.add_int st (dtype_tag t.dtype);
      F.add_int st t.vector_width;
      F.add_list st field_fp t.inputs;
      F.add_list st F.add_string t.outputs;
      F.add_list st
        (fun st s -> F.add_fingerprint st (stencil_fingerprint s))
        t.stencils)
