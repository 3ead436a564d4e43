open Sf_ir

type config = {
  add : int;
  mul : int;
  div : int;
  sqrt : int;
  compare : int;
  logic : int;
  select : int;
  call : int;
  min_max : int;
}

let default =
  { add = 8; mul = 8; div = 32; sqrt = 32; compare = 2; logic = 1; select = 1; call = 32; min_max = 2 }

let cheap =
  { add = 1; mul = 1; div = 1; sqrt = 1; compare = 1; logic = 1; select = 1; call = 1; min_max = 1 }

let binop_latency cfg = function
  | Expr.Add | Expr.Sub -> cfg.add
  | Expr.Mul -> cfg.mul
  | Expr.Div -> cfg.div
  | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.Eq | Expr.Ne -> cfg.compare
  | Expr.And | Expr.Or -> cfg.logic

let func_latency cfg = function
  | Expr.Sqrt -> cfg.sqrt
  | Expr.Min | Expr.Max -> cfg.min_max
  | Expr.Abs -> cfg.logic
  | Expr.Exp | Expr.Log | Expr.Pow | Expr.Sin | Expr.Cos | Expr.Floor | Expr.Ceil -> cfg.call

(* Critical path over the hash-consed DAG: each distinct node's depth is
   computed once, however often the inlined tree repeats it. The result
   is sharing-invariant (a maximum over root-to-leaf paths), so it equals
   the historical tree walk exactly — post-fusion bodies just no longer
   pay an exponential walk for it. Unbound variables contribute depth 0,
   matching the old lookup-miss behavior. *)
let critical_path cfg (body : Expr.body) =
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec depth t =
    match Hashtbl.find_opt memo (Dag.id t) with
    | Some d -> d
    | None ->
        let d =
          match Dag.view t with
          | Dag.Const _ | Dag.Access _ | Dag.Var _ -> 0
          | Dag.Unary (Expr.Neg, x) -> cfg.add + depth x
          | Dag.Unary (Expr.Not, x) -> cfg.logic + depth x
          | Dag.Binary (op, x, y) -> binop_latency cfg op + max (depth x) (depth y)
          | Dag.Select { cond; if_true; if_false } ->
              cfg.select + max (depth cond) (max (depth if_true) (depth if_false))
          | Dag.Call (f, args) ->
              func_latency cfg f + List.fold_left (fun acc a -> max acc (depth a)) 0 args
        in
        Hashtbl.replace memo (Dag.id t) d;
        d
  in
  depth (Dag.of_body body)
