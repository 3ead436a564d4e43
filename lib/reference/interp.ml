open Sf_ir

type result = { tensor : Tensor.t; valid : bool array }

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt
let truthy v = v <> 0.
let of_bool b = if b then 1. else 0.

let eval_func f args =
  match (f, args) with
  | Expr.Sqrt, [ x ] -> Float.sqrt x
  | Expr.Abs, [ x ] -> Float.abs x
  | Expr.Exp, [ x ] -> Float.exp x
  | Expr.Log, [ x ] -> Float.log x
  | Expr.Pow, [ x; y ] -> Float.pow x y
  | Expr.Min, [ x; y ] -> Float.min x y
  | Expr.Max, [ x; y ] -> Float.max x y
  | Expr.Sin, [ x ] -> Float.sin x
  | Expr.Cos, [ x ] -> Float.cos x
  | Expr.Floor, [ x ] -> Float.floor x
  | Expr.Ceil, [ x ] -> Float.ceil x
  | ( ( Expr.Sqrt | Expr.Abs | Expr.Exp | Expr.Log | Expr.Pow | Expr.Min | Expr.Max
      | Expr.Sin | Expr.Cos | Expr.Floor | Expr.Ceil ),
      _ ) ->
      fail "wrong arity for %s" (Expr.func_name f)

let rec eval_expr ~lookup ~env expr =
  match expr with
  | Expr.Const c -> c
  | Expr.Access { field; offsets } -> lookup ~field ~offsets
  | Expr.Var v -> (
      match env v with Some value -> value | None -> fail "unbound variable %s" v)
  | Expr.Unary (Expr.Neg, x) -> -.eval_expr ~lookup ~env x
  | Expr.Unary (Expr.Not, x) -> of_bool (not (truthy (eval_expr ~lookup ~env x)))
  | Expr.Binary (op, x, y) -> (
      let a = eval_expr ~lookup ~env x in
      (* && and || are not short-circuit: the spatial pipeline evaluates
         both sides unconditionally, and so do we. *)
      let b = eval_expr ~lookup ~env y in
      match op with
      | Expr.Add -> a +. b
      | Expr.Sub -> a -. b
      | Expr.Mul -> a *. b
      | Expr.Div -> a /. b
      | Expr.Lt -> of_bool (a < b)
      | Expr.Le -> of_bool (a <= b)
      | Expr.Gt -> of_bool (a > b)
      | Expr.Ge -> of_bool (a >= b)
      | Expr.Eq -> of_bool (a = b)
      | Expr.Ne -> of_bool (a <> b)
      | Expr.And -> of_bool (truthy a && truthy b)
      | Expr.Or -> of_bool (truthy a || truthy b))
  | Expr.Select { cond; if_true; if_false } ->
      (* Both branches are evaluated (predication), then one selected. *)
      let c = eval_expr ~lookup ~env cond in
      let t = eval_expr ~lookup ~env if_true in
      let f = eval_expr ~lookup ~env if_false in
      if truthy c then t else f
  | Expr.Call (f, args) -> eval_func f (List.map (eval_expr ~lookup ~env) args)

let input_extent (p : Program.t) (f : Field.t) =
  match Field.extent f ~shape:p.Program.shape with [] -> [ 1 ] | extent -> extent

type plan = {
  checked : Program.checked;
  stages : (Stencil.t * Compile.program) list;
  lowerings : int;
}

(* A field's loads shift along the lane (innermost) axis only if it
   spans that axis and reads a constant out of bounds; likewise along the
   row (second-innermost) axis, whose shifts the stages share through
   rings: every dispatch of a stage runs on one frame, row by row.

   Stages that differ only in the names of the fields they read share
   one lowering: a body is keyed with its fields renamed in the order a
   walk of the body meets them, each field's two classes and the row
   length, which is all [Compile.lower] reads; the key's body is its
   DAG, whose constants are keyed by their bits. The shared program is
   lowered from the renamed body and each stage rebinds its loads to its
   own fields. *)
let plan checked =
  let p = Program.Checked.program checked in
  let rank = Program.rank p in
  let cols = if rank < 2 then None else Some (List.nth p.Program.shape (rank - 1)) in
  let lowered = Hashtbl.create 8 in
  let lower s =
    let along axis field =
      if not (List.mem axis (Program.Checked.axes checked field)) then Compile.Uniform
      else
        match Stencil.boundary_for s field with
        | Boundary.Constant _ -> Compile.Shifts
        | Boundary.Copy -> Compile.Fixed
    in
    (* Each field is renamed to the number of fields met before it. *)
    let position = Hashtbl.create 8 and fields = ref [] in
    let canon =
      Expr.map_accesses (fun ~field ~offsets ->
          let c =
            match Hashtbl.find_opt position field with
            | Some c -> c
            | None ->
                fields := field :: !fields;
                let c = string_of_int (Hashtbl.length position) in
                Hashtbl.add position field c;
                c
          in
          Expr.Access { field = c; offsets })
    in
    let { Expr.lets; result } = s.Stencil.body in
    let lets = List.map (fun (v, e) -> (v, canon e)) lets in
    let body = { Expr.lets; result = canon result } in
    let fields = Array.of_list (List.rev !fields) in
    let field c = fields.(int_of_string c) in
    let named, root = Dag.of_body_named body in
    let classes f = (along (rank - 1) f, Option.map (fun _ -> along (rank - 2) f) cols) in
    let key =
      (List.map (fun (v, t) -> (v, Dag.id t)) named, Dag.id root, Array.map classes fields, cols)
    in
    let prog =
      match Hashtbl.find_opt lowered key with
      | Some prog -> prog
      | None ->
          let class_of axis c = along axis (field c) in
          let rows = Option.map (fun cols -> (cols, class_of (rank - 2))) cols in
          let prog = Compile.lower ?rows ~lane:(class_of (rank - 1)) body in
          Hashtbl.add lowered key prog;
          prog
    in
    (s, Compile.rebind prog field)
  in
  let stages = List.map lower (Program.Checked.order checked) in
  { checked; stages; lowerings = Hashtbl.length lowered }

(* Evaluate every stage in topological order: the input checks happen up
   front, the returned function runs the row loops. A stage that is not
   an output is dropped once its last consumer has run (at once if
   nothing reads it), and its data and validity arrays are reused by a
   later stage, so memory follows the DAG's live width; the results are
   the outputs only. *)
let prepare ?load_runs { checked; stages; _ } ~inputs =
  let p = Program.Checked.program checked in
  let shape = Array.of_list p.Program.shape in
  let rank = Program.rank p in
  let cells = Program.cells p in
  let resident : (string, Tensor.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let expected = input_extent p f in
      match List.assoc_opt f.Field.name inputs with
      | None -> fail "missing input data for field %s" f.Field.name
      | Some t ->
          let extent = if t.Tensor.extent = [] then [ 1 ] else t.Tensor.extent in
          if extent <> expected then
            fail "input %s: expected extent [%s], got [%s]" f.Field.name
              (Sf_support.Util.string_concat_map "," string_of_int expected)
              (Sf_support.Util.string_concat_map "," string_of_int extent);
          Hashtbl.replace resident f.Field.name { t with Tensor.extent })
    p.Program.inputs;
  (* The position of each field's last consumer. *)
  let last_use : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun i (_, prog) -> Array.iter (fun (f, _) -> Hashtbl.replace last_use f i) (Compile.loads prog))
    stages;
  let is_output name = List.exists (String.equal name) p.Program.outputs in
  fun () ->
    let store = Hashtbl.copy resident in
    let live : (string, result) Hashtbl.t = Hashtbl.create 16 in
    let pool = ref [] in
    let release i name =
      match Hashtbl.find_opt live name with
      | Some r
        when (not (is_output name))
             && Option.value (Hashtbl.find_opt last_use name) ~default:(-1) <= i ->
          Hashtbl.remove live name;
          Hashtbl.remove store name;
          pool := r :: !pool
      | Some _ | None -> ()
    in
    (* One dispatch of the compiled body per innermost-axis row (a valid
       program has 1-3 axes), in row-major order on one frame: the
       row's cells are the lanes. *)
    let lanes = shape.(rank - 1) in
    (* One frame per distinct lowering: stages run one after another, and
       each plane's first rows run the full list, so no stage reads a
       ring row an earlier stage wrote. *)
    let frames = ref [] in
    let frame_for prog =
      match List.find_opt (fun (q, _) -> Compile.same_lowering prog q) !frames with
      | Some (_, fr) -> fr
      | None ->
          let fr = Compile.frame prog ~lanes in
          frames := (prog, fr) :: !frames;
          fr
    in
    let eval_stencil i ((s : Stencil.t), prog) =
      (* Every cell of a reused tensor is overwritten below. *)
      let out, valid =
        match !pool with
        | r :: rest ->
            pool := rest;
            (r.tensor, r.valid)
        | [] -> (Tensor.create p.Program.shape, Array.make cells true)
      in
      let taps =
        Compile.taps prog ~shape (fun field ->
            let tensor =
              match Hashtbl.find_opt store field with
              | Some t -> t
              | None -> fail "field %s evaluated before its producer" field
            in
            ( Compile.resident tensor.Tensor.data,
              Array.of_list (Program.Checked.axes checked field),
              Stencil.boundary_for s field ))
      in
      let frame = frame_for prog in
      let oob = if s.Stencil.shrink then Some (Array.make lanes false) else None in
      let idx = Array.make rank 0 in
      for row = 0 to (cells / lanes) - 1 do
        Compile.fill taps ~idx ~lanes frame ?oob;
        Compile.exec prog ~idx ~lanes frame ~dst:out.Tensor.data ~at:(row * lanes);
        (match oob with
        | Some oob ->
            for l = 0 to lanes - 1 do
              valid.((row * lanes) + l) <- not oob.(l)
            done
        | None -> Array.fill valid (row * lanes) lanes true);
        Compile.advance ~shape idx (rank - 2) 1
      done;
      Option.iter (fun f -> f (Compile.load_runs taps)) load_runs;
      Hashtbl.replace store s.Stencil.name out;
      Hashtbl.replace live s.Stencil.name { tensor = out; valid };
      Array.iter (fun (field, _) -> release i field) (Compile.loads prog);
      release i s.Stencil.name
    in
    List.iteri eval_stencil stages;
    List.filter_map
      (fun ((s : Stencil.t), _) ->
        Option.map (fun r -> (s.Stencil.name, r)) (Hashtbl.find_opt live s.Stencil.name))
      stages

let run p ~inputs = prepare (plan (Program.check_exn p)) ~inputs ()

let random_inputs ?(seed = 42) (p : Program.t) =
  let state = Random.State.make [| seed |] in
  List.map
    (fun f ->
      let extent = input_extent p f in
      let t = Tensor.create extent in
      for i = 0 to Tensor.num_elements t - 1 do
        t.Tensor.data.(i) <- Random.State.float state 2. -. 1.
      done;
      (f.Field.name, t))
    p.Program.inputs
