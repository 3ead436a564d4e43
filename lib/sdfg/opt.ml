open Sf_ir

let eval_const_unop op c =
  match op with
  | Expr.Neg -> -.c
  | Expr.Not -> if c <> 0. then 0. else 1.

let eval_const_binop op a b =
  let of_bool p = if p then 1. else 0. in
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
  | Expr.And -> of_bool (a <> 0. && b <> 0.)
  | Expr.Or -> of_bool (a <> 0. || b <> 0.)

let eval_const_call f args =
  match (f, args) with
  | Expr.Sqrt, [ x ] -> Some (Float.sqrt x)
  | Expr.Abs, [ x ] -> Some (Float.abs x)
  | Expr.Exp, [ x ] -> Some (Float.exp x)
  | Expr.Log, [ x ] -> Some (Float.log x)
  | Expr.Pow, [ x; y ] -> Some (Float.pow x y)
  | Expr.Min, [ x; y ] -> Some (Float.min x y)
  | Expr.Max, [ x; y ] -> Some (Float.max x y)
  | Expr.Sin, [ x ] -> Some (Float.sin x)
  | Expr.Cos, [ x ] -> Some (Float.cos x)
  | Expr.Floor, [ x ] -> Some (Float.floor x)
  | Expr.Ceil, [ x ] -> Some (Float.ceil x)
  | ( ( Expr.Sqrt | Expr.Abs | Expr.Exp | Expr.Log | Expr.Pow | Expr.Min | Expr.Max | Expr.Sin
      | Expr.Cos | Expr.Floor | Expr.Ceil ),
      _ ) ->
      None

(* Constant folding as a linear pass over the DAG: each distinct node is
   folded exactly once, however often the inlined tree repeats it. The
   zero identities are sign-exact: [x + -0.0] and [x - +0.0] equal [x]
   for every [x], but [-0.0 + +0.0] is [+0.0], so adding [+0.0] (or
   subtracting [-0.0]) is kept. The [c = 1.] guards never match NaN. *)
let fold_dag ?(preserve_access_effects = false) root =
  let memo : (int, Dag.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo (Dag.id t) with
    | Some t' -> t'
    | None ->
        let t' =
          match Dag.view t with
          | Dag.Const _ | Dag.Access _ | Dag.Var _ -> t
          | Dag.Unary (op, x) -> (
              let x' = go x in
              match Dag.view x' with
              | Dag.Const c -> Dag.const (eval_const_unop op c)
              | _ -> Dag.unary op x')
          | Dag.Binary (op, x, y) -> (
              let x' = go x and y' = go y in
              match (op, Dag.view x', Dag.view y') with
              | _, Dag.Const a, Dag.Const b -> Dag.const (eval_const_binop op a b)
              (* IEEE-exact identities only: they preserve NaN and Inf
                 propagation and the sign of zero. *)
              | Expr.Add, Dag.Const c, _ when c = 0. && Float.sign_bit c -> y'
              | Expr.Add, _, Dag.Const c when c = 0. && Float.sign_bit c -> x'
              | Expr.Sub, _, Dag.Const c when c = 0. && not (Float.sign_bit c) -> x'
              | Expr.Mul, Dag.Const c, _ when c = 1. -> y'
              | Expr.Mul, _, Dag.Const c when c = 1. -> x'
              | Expr.Div, _, Dag.Const c when c = 1. -> x'
              | _, _, _ -> Dag.binary op x' y')
          | Dag.Select { cond; if_true; if_false } -> (
              let cond' = go cond in
              match Dag.view cond' with
              (* Folding a constant-condition select drops the unselected
                 branch. Under "shrink" semantics the dropped branch's
                 (predicated, possibly out-of-bounds) accesses still
                 affect the validity mask, so the fold is only legal when
                 that branch reads nothing or the caller asked for
                 pure-value semantics. *)
              | Dag.Const c
                when (not preserve_access_effects)
                     || Dag.accesses (if c <> 0. then if_false else if_true) = [] ->
                  go (if c <> 0. then if_true else if_false)
              | _ ->
                  Dag.select ~cond:cond' ~if_true:(go if_true) ~if_false:(go if_false))
          | Dag.Call (f, args) -> (
              let args' = List.map go args in
              let consts =
                List.filter_map
                  (fun a -> match Dag.view a with Dag.Const c -> Some c | _ -> None)
                  args'
              in
              if List.length consts = List.length args' then
                match eval_const_call f consts with
                | Some v -> Dag.const v
                | None -> Dag.call f args'
              else Dag.call f args')
        in
        Hashtbl.replace memo (Dag.id t) t';
        t'
  in
  go root

let fold_constants ?preserve_access_effects expr =
  Dag.to_expr (fold_dag ?preserve_access_effects (Dag.of_expr expr))

(* Compat shim: CSE is now hash-consing + let-extraction on the DAG. No
   string keys, no repeated tree-size walks, and a subtree occurring
   many times through one shared parent is bound once, not per textual
   occurrence. *)
let cse ?min_size (body : Expr.body) = Dag.to_body ?min_size (Dag.of_body body)

let optimize_stencil ?min_size (s : Stencil.t) =
  (* Shrink stencils must keep predicated accesses alive (they feed the
     validity mask) even when a constant condition never selects them. *)
  let root = Dag.of_body s.Stencil.body in
  let folded = fold_dag ~preserve_access_effects:s.Stencil.shrink root in
  let s = { s with Stencil.body = Dag.extract ?min_size folded } in
  (* Folding can eliminate every access to a field (a constant-condition
     select, for instance); drop boundary conditions for fields that are
     no longer read. *)
  let still_read = Stencil.input_fields s in
  {
    s with
    Stencil.boundary =
      List.filter (fun (f, _) -> List.exists (String.equal f) still_read) s.Stencil.boundary;
  }

type report = {
  ops_before : int;
  ops_after : int;
  tree_ops_after : int;
  shared_nodes : int;
}

let flops_saved r = r.tree_ops_after - r.ops_after

let work_flops (p : Program.t) =
  List.fold_left
    (fun acc (s : Stencil.t) ->
      acc + Expr.flop_count (Dag.work_profile (Dag.of_body s.Stencil.body)))
    0 p.Program.stencils

let tree_flops (p : Program.t) =
  let sat a b = let s = a + b in if s < a || s < b then max_int else s in
  List.fold_left
    (fun acc (s : Stencil.t) ->
      sat acc (Expr.flop_count (Dag.tree_profile (Dag.of_body s.Stencil.body))))
    0 p.Program.stencils

let shared_count (p : Program.t) =
  List.fold_left
    (fun acc (s : Stencil.t) -> acc + Dag.shared_nodes (Dag.of_body s.Stencil.body))
    0 p.Program.stencils

let optimize_with_report ?min_size (p : Program.t) =
  let ops_before = work_flops p in
  let stencils = List.map (optimize_stencil ?min_size) p.Program.stencils in
  (* Dead-code elimination: folding may disconnect stencils entirely;
     remove (transitively) everything that is neither an output nor read
     by a surviving stencil. *)
  let rec prune stencils =
    let read = List.concat_map (fun (s : Stencil.t) -> Stencil.input_fields s) stencils in
    let live (s : Stencil.t) =
      List.exists (String.equal s.Stencil.name) p.Program.outputs
      || List.exists (String.equal s.Stencil.name) read
    in
    let survivors = List.filter live stencils in
    if List.length survivors = List.length stencils then stencils else prune survivors
  in
  let stencils = prune stencils in
  let read = List.concat_map (fun (s : Stencil.t) -> Stencil.input_fields s) stencils in
  let inputs =
    List.filter (fun f -> List.exists (String.equal f.Field.name) read) p.Program.inputs
  in
  let optimized = { p with Program.stencils; inputs } in
  let report =
    {
      ops_before;
      ops_after = work_flops optimized;
      tree_ops_after = tree_flops optimized;
      shared_nodes = shared_count optimized;
    }
  in
  (optimized, report)

let optimize ?min_size (p : Program.t) = fst (optimize_with_report ?min_size p)
