type t = {
  name : string;
  shape : int list;
  dtype : Dtype.t;
  vector_width : int;
  mutable inputs : Field.t list;
  mutable stencils : Stencil.t list;
  mutable outputs : string list;
}

let create ?(dtype = Dtype.F32) ?(vector_width = 1) ~name ~shape () =
  { name; shape; dtype; vector_width; inputs = []; stencils = []; outputs = [] }

let input b ?dtype ?axes name =
  let dtype = Option.value dtype ~default:b.dtype in
  let field = Field.make ~dtype ?axes ~name ~full_rank:(List.length b.shape) () in
  b.inputs <- b.inputs @ [ field ]

let stencil b ?boundary ?shrink ?(lets = []) name result =
  let body = { Expr.lets; result } in
  b.stencils <- b.stencils @ [ Stencil.make ?boundary ?shrink ~name body ]

let output b name = b.outputs <- b.outputs @ [ name ]

let finish b =
  let program =
    Program.make ~dtype:b.dtype ~vector_width:b.vector_width ~name:b.name ~shape:b.shape
      ~inputs:b.inputs ~outputs:b.outputs b.stencils
  in
  ignore (Program.check_exn program);
  program

module E = struct
  let c f = Expr.Const f
  let i n = Expr.Const (float_of_int n)
  let acc field offsets = Expr.Access { field; offsets }
  let sc field = Expr.Access { field; offsets = [] }
  let var name = Expr.Var name
  let binary op a b = Expr.Binary (op, a, b)
  let ( +% ) = binary Expr.Add
  let ( -% ) = binary Expr.Sub
  let ( *% ) = binary Expr.Mul
  let ( /% ) = binary Expr.Div
  let ( <% ) = binary Expr.Lt
  let ( <=% ) = binary Expr.Le
  let ( >% ) = binary Expr.Gt
  let ( >=% ) = binary Expr.Ge
  let ( ==% ) = binary Expr.Eq
  let ( !=% ) = binary Expr.Ne
  let ( &&% ) = binary Expr.And
  let ( ||% ) = binary Expr.Or
  let neg e = Expr.Unary (Expr.Neg, e)
  let sel cond if_true if_false = Expr.Select { cond; if_true; if_false }
  let sqrt_ e = Expr.Call (Expr.Sqrt, [ e ])
  let abs_ e = Expr.Call (Expr.Abs, [ e ])
  let exp_ e = Expr.Call (Expr.Exp, [ e ])
  let log_ e = Expr.Call (Expr.Log, [ e ])
  let pow_ a b = Expr.Call (Expr.Pow, [ a; b ])
  let min_ a b = Expr.Call (Expr.Min, [ a; b ])
  let max_ a b = Expr.Call (Expr.Max, [ a; b ])

  let sum = function
    | [] -> invalid_arg "Builder.E.sum: empty list"
    | first :: rest -> List.fold_left ( +% ) first rest
end
