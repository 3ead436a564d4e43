type unop = Neg | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type func = Sqrt | Abs | Exp | Log | Pow | Min | Max | Sin | Cos | Floor | Ceil

type t =
  | Const of float
  | Access of { field : string; offsets : int list }
  | Var of string
  | Unary of unop * t
  | Binary of binop * t * t
  | Select of { cond : t; if_true : t; if_false : t }
  | Call of func * t list

type body = { lets : (string * t) list; result : t }

let func_name = function
  | Sqrt -> "sqrt"
  | Abs -> "fabs"
  | Exp -> "exp"
  | Log -> "log"
  | Pow -> "pow"
  | Min -> "min"
  | Max -> "max"
  | Sin -> "sin"
  | Cos -> "cos"
  | Floor -> "floor"
  | Ceil -> "ceil"

let func_of_name = function
  | "sqrt" -> Some Sqrt
  | "fabs" | "abs" -> Some Abs
  | "exp" -> Some Exp
  | "log" -> Some Log
  | "pow" -> Some Pow
  | "min" | "fmin" -> Some Min
  | "max" | "fmax" -> Some Max
  | "sin" -> Some Sin
  | "cos" -> Some Cos
  | "floor" -> Some Floor
  | "ceil" -> Some Ceil
  | _ -> None

let func_arity = function
  | Pow | Min | Max -> 2
  | Sqrt | Abs | Exp | Log | Sin | Cos | Floor | Ceil -> 1

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Access a, Access b -> String.equal a.field b.field && a.offsets = b.offsets
  | Var x, Var y -> String.equal x y
  | Unary (op1, x), Unary (op2, y) -> op1 = op2 && equal x y
  | Binary (op1, x1, y1), Binary (op2, x2, y2) -> op1 = op2 && equal x1 x2 && equal y1 y2
  | Select a, Select b ->
      equal a.cond b.cond && equal a.if_true b.if_true && equal a.if_false b.if_false
  | Call (f, args1), Call (g, args2) ->
      f = g && List.length args1 = List.length args2 && List.for_all2 equal args1 args2
  | (Const _ | Access _ | Var _ | Unary _ | Binary _ | Select _ | Call _), _ -> false

let rec fold f acc expr =
  let acc = f acc expr in
  match expr with
  | Const _ | Access _ | Var _ -> acc
  | Unary (_, x) -> fold f acc x
  | Binary (_, x, y) -> fold f (fold f acc x) y
  | Select { cond; if_true; if_false } -> fold f (fold f (fold f acc cond) if_true) if_false
  | Call (_, args) -> List.fold_left (fold f) acc args

let dedup_keep_order l =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    l

let accesses expr =
  fold
    (fun acc e -> match e with Access { field; offsets } -> (field, offsets) :: acc | _ -> acc)
    [] expr
  |> List.rev |> dedup_keep_order

let free_vars expr =
  fold (fun acc e -> match e with Var v -> v :: acc | _ -> acc) [] expr
  |> List.rev |> dedup_keep_order

let rec map_accesses f expr =
  match expr with
  | Access { field; offsets } -> f ~field ~offsets
  | Const _ | Var _ -> expr
  | Unary (op, x) -> Unary (op, map_accesses f x)
  | Binary (op, x, y) -> Binary (op, map_accesses f x, map_accesses f y)
  | Select { cond; if_true; if_false } ->
      Select
        {
          cond = map_accesses f cond;
          if_true = map_accesses f if_true;
          if_false = map_accesses f if_false;
        }
  | Call (g, args) -> Call (g, List.map (map_accesses f) args)

type op_profile = {
  adds : int;
  muls : int;
  divs : int;
  sqrts : int;
  mins : int;
  maxs : int;
  other_calls : int;
  compares : int;
  data_branches : int;
  const_branches : int;
}

let empty_profile =
  {
    adds = 0;
    muls = 0;
    divs = 0;
    sqrts = 0;
    mins = 0;
    maxs = 0;
    other_calls = 0;
    compares = 0;
    data_branches = 0;
    const_branches = 0;
  }

let add_profile a b =
  {
    adds = a.adds + b.adds;
    muls = a.muls + b.muls;
    divs = a.divs + b.divs;
    sqrts = a.sqrts + b.sqrts;
    mins = a.mins + b.mins;
    maxs = a.maxs + b.maxs;
    other_calls = a.other_calls + b.other_calls;
    compares = a.compares + b.compares;
    data_branches = a.data_branches + b.data_branches;
    const_branches = a.const_branches + b.const_branches;
  }

(* Tree sizes and profiles of repeatedly substituted bodies grow
   multiplicatively; saturate instead of wrapping. *)
let sat_add a b =
  let s = a + b in
  if s < a || s < b then max_int else s

let sat_add_profile a b =
  {
    adds = sat_add a.adds b.adds;
    muls = sat_add a.muls b.muls;
    divs = sat_add a.divs b.divs;
    sqrts = sat_add a.sqrts b.sqrts;
    mins = sat_add a.mins b.mins;
    maxs = sat_add a.maxs b.maxs;
    other_calls = sat_add a.other_calls b.other_calls;
    compares = sat_add a.compares b.compares;
    data_branches = sat_add a.data_branches b.data_branches;
    const_branches = sat_add a.const_branches b.const_branches;
  }

(* A branch condition is data-dependent when it reads a field directly or
   through a let-bound temporary (which, in well-formed bodies, is itself
   computed from field reads). *)
let reads_data expr = accesses expr <> [] || free_vars expr <> []

let op_profile expr =
  fold
    (fun p e ->
      match e with
      | Const _ | Access _ | Var _ -> p
      | Unary (Neg, _) -> { p with adds = p.adds + 1 }
      | Unary (Not, _) -> p
      | Binary ((Add | Sub), _, _) -> { p with adds = p.adds + 1 }
      | Binary (Mul, _, _) -> { p with muls = p.muls + 1 }
      | Binary (Div, _, _) -> { p with divs = p.divs + 1 }
      | Binary ((Lt | Le | Gt | Ge | Eq | Ne), _, _) -> { p with compares = p.compares + 1 }
      | Binary ((And | Or), _, _) -> p
      | Select { cond; _ } ->
          if reads_data cond then { p with data_branches = p.data_branches + 1 }
          else { p with const_branches = p.const_branches + 1 }
      | Call (Sqrt, _) -> { p with sqrts = p.sqrts + 1 }
      | Call (Min, _) -> { p with mins = p.mins + 1 }
      | Call (Max, _) -> { p with maxs = p.maxs + 1 }
      | Call ((Abs | Exp | Log | Pow | Sin | Cos | Floor | Ceil), _) ->
          { p with other_calls = p.other_calls + 1 })
    empty_profile expr

(* Each let binding is counted once: the spatial pipeline computes a
   bound value a single time and fans it out, so inlining (which would
   duplicate shared subexpressions) would over-count hardware ops. *)
let body_op_profile body =
  List.fold_left
    (fun acc (_, e) -> add_profile acc (op_profile e))
    (op_profile body.result) body.lets
let flop_count p = p.adds + p.muls + p.divs + p.sqrts

(* Precedence levels for printing; larger binds tighter. *)
let binop_prec = function
  | Or -> 1
  | And -> 2
  | Eq | Ne -> 3
  | Lt | Le | Gt | Ge -> 4
  | Add | Sub -> 5
  | Mul | Div -> 6

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

let const_to_string c =
  if Float.is_integer c && Float.abs c < 1e15 then
    (* Keep a decimal point so reparsing yields a float literal. *)
    Printf.sprintf "%.1f" c
  else Printf.sprintf "%.17g" c

let to_string expr =
  let buf = Buffer.create 64 in
  (* [emit prec e]: print [e], parenthesizing when its own precedence is
     below [prec]. Ternary is level 0 and right-associative. *)
  let rec emit prec e =
    match e with
    | Const c -> Buffer.add_string buf (const_to_string c)
    | Var v -> Buffer.add_string buf v
    | Access { field; offsets } ->
        Buffer.add_string buf field;
        if offsets <> [] then begin
          Buffer.add_char buf '[';
          List.iteri
            (fun i o ->
              if i > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf (string_of_int o))
            offsets;
          Buffer.add_char buf ']'
        end
    | Unary (op, x) ->
        let wrap = prec > 7 in
        if wrap then Buffer.add_char buf '(';
        Buffer.add_string buf (match op with Neg -> "-" | Not -> "!");
        emit 7 x;
        if wrap then Buffer.add_char buf ')'
    | Binary (op, x, y) ->
        let p = binop_prec op in
        let wrap = prec > p in
        if wrap then Buffer.add_char buf '(';
        emit p x;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (binop_symbol op);
        Buffer.add_char buf ' ';
        emit (p + 1) y;
        if wrap then Buffer.add_char buf ')'
    | Select { cond; if_true; if_false } ->
        let wrap = prec > 0 in
        if wrap then Buffer.add_char buf '(';
        emit 1 cond;
        Buffer.add_string buf " ? ";
        emit 1 if_true;
        Buffer.add_string buf " : ";
        emit 0 if_false;
        if wrap then Buffer.add_char buf ')'
    | Call (f, args) ->
        Buffer.add_string buf (func_name f);
        Buffer.add_char buf '(';
        List.iteri
          (fun i a ->
            if i > 0 then Buffer.add_string buf ", ";
            emit 0 a)
          args;
        Buffer.add_char buf ')'
  in
  emit 0 expr;
  Buffer.contents buf

let body_to_string { lets; result } =
  let bindings = List.map (fun (n, e) -> Printf.sprintf "%s = %s;\n" n (to_string e)) lets in
  String.concat "" bindings ^ to_string result

let pp fmt expr = Format.pp_print_string fmt (to_string expr)
