open Sf_ir

type op =
  | Neg | Not | Add | Sub | Mul | Div | Lt | Le | Gt | Ge | Eq | Ne | And | Or | Select
  | Sqrt | Abs | Exp | Log | Sin | Cos | Floor | Ceil | Pow | Min | Max
  (* Fused forms: an operation and the single-use operation it reads. *)
  | Scale_sub  (* x * (y - z) *)
  | Scale_add  (* x * (y + z) *)
  | Add_add  (* (x + y) + z *)
  | Sub_add  (* (x - y) + z *)
  | Mul_add  (* (x * y) + z *)
  | Mul_sub  (* (x * y) - z *)
  | Select_gt  (* select (x > y, z, w) *)

type program = {
  loads : (string * int list) array;
  load_extra : int array;
  consts : float array;
  ops : op array;
  args : int array;  (* [per_instr] per instruction: slots d x y z w, offsets of x y z w, extra cells *)
  n_slots : int;
  pad : int;
  result : int;
  result_off : int;
}

type lane = Shifts | Fixed | Uniform

let per_instr = 10

(* [fuse op at op'] is the fused form of an [op] whose operand [at] is
   an [op'], if there is one: operand [at] is replaced by the [op']'s
   operands, in order. *)
let fuse op at op' =
  match (op, at, op') with
  | Mul, 1, Sub -> Some Scale_sub
  | Mul, 1, Add -> Some Scale_add
  | Add, 0, Add -> Some Add_add
  | Add, 0, Sub -> Some Sub_add
  | Add, 0, Mul -> Some Mul_add
  | Sub, 0, Mul -> Some Mul_sub
  | Select, 0, Gt -> Some Select_gt
  | _ -> None

let loads p = p.loads
let instructions p = Array.length p.ops
let stride p ~lanes = lanes + p.pad
let result p ~stride = (p.result * stride) + p.result_off

(* A lane-shift class: the nodes that compute one lane-indexed function
   [v], node [n] of the class reading it at its own shift [s_n] (lane
   [l]'s value is [v (l + s_n)]). A node with no shift reads no lane
   (only constants and loads that do not depend on the lane feed it):
   any lane of its class holds its value. *)
type key =
  | Leaf of int  (* a constant or an unshifted load: its DAG node *)
  | Run of string * int list  (* a shifting load at lane offset 0 *)
  | Node of op * (int * int option) list  (* operand classes and shifts relative to the node's *)

type cls =
  | Load of string * int list * bool  (* field, offsets, whether it shifts *)
  | Value of float
  | Instr of op * (int * int option) list

let kind = function Load _ -> 0 | Value _ -> 1 | Instr _ -> 2

(* Classes are keyed bottom-up over the DAG in post-order, one hash
   lookup per node: a shifting load drops its lane offset into its
   shift, an operation takes the least shift of its lane-dependent
   operands and keeps the others relative to it. Each class then runs
   over the shifts of its nodes, widened top-down from the roots: an
   operand read at relative shift [r] runs over the user's range plus
   [r]. A class's range is exactly the hull of its nodes' shifts, so a
   load class spans its loads' lane offsets and no more.

   Slots: load classes first (slot k is load k), then constants, then
   the computed classes in post-order from the result, each in the
   lowest free slot. A load or computed value frees its slot after its
   last reader, or at once if nothing reads it; constants and the result
   stay pinned. A destination may take a slot an operand frees at the
   same instruction: a lane loop reads cell [k + off] ([off >= 0])
   before it writes cell [k], in increasing [k]. Every node of the body
   is scheduled, including bindings the result never reads: their
   loads still widen their classes, which the validity flags read. *)
let lower ~lane (b : Expr.body) =
  let named, root = Dag.of_body_named b in
  let roots = root :: List.map snd named in
  let classes : (key, int) Hashtbl.t = Hashtbl.create 64 and made = ref [] in
  let class_of : (int, int * int option) Hashtbl.t = Hashtbl.create 64 in
  let of_node t = Hashtbl.find class_of (Dag.id t) in
  let intern key c =
    match Hashtbl.find_opt classes key with
    | Some k -> k
    | None ->
        let k = Hashtbl.length classes in
        Hashtbl.add classes key k;
        made := c :: !made;
        k
  in
  let operation op operands =
    let operands = List.map of_node operands in
    let shift =
      List.fold_left
        (fun m (_, s) -> match (m, s) with Some a, Some b -> Some (Int.min a b) | None, s | s, None -> s)
        None operands
    in
    let rel = List.map (fun (k, s) -> (k, Option.map (fun s -> s - Option.get shift) s)) operands in
    (intern (Node (op, rel)) (Instr (op, rel)), shift)
  in
  List.iter
    (fun t ->
      let c =
        match Dag.view t with
        | Dag.Const c -> (intern (Leaf (Dag.id t)) (Value c), None)
        | Dag.Access { field; offsets } -> (
            match (lane field, List.rev offsets) with
            | Shifts, o :: outer ->
                let at = List.rev (0 :: outer) in
                (intern (Run (field, at)) (Load (field, at, true)), Some o)
            | Fixed, _ | Shifts, [] -> (intern (Leaf (Dag.id t)) (Load (field, offsets, false)), Some 0)
            | Uniform, _ -> (intern (Leaf (Dag.id t)) (Load (field, offsets, false)), None))
        | Dag.Var v -> invalid_arg (Printf.sprintf "Compile.lower: unbound variable %s" v)
        | Dag.Unary (op, x) -> operation (match op with Expr.Neg -> Neg | Expr.Not -> Not) [ x ]
        | Dag.Binary (op, x, y) ->
            operation
              (match op with
              | Expr.Add -> Add | Expr.Sub -> Sub | Expr.Mul -> Mul | Expr.Div -> Div
              | Expr.Lt -> Lt | Expr.Le -> Le | Expr.Gt -> Gt | Expr.Ge -> Ge
              | Expr.Eq -> Eq | Expr.Ne -> Ne | Expr.And -> And | Expr.Or -> Or)
              [ x; y ]
        | Dag.Select { cond; if_true; if_false } -> operation Select [ cond; if_true; if_false ]
        | Dag.Call (f, args) ->
            if List.length args <> Expr.func_arity f then
              invalid_arg (Printf.sprintf "Compile.lower: wrong arity for %s" (Expr.func_name f));
            operation
              (match f with
              | Expr.Sqrt -> Sqrt | Expr.Abs -> Abs | Expr.Exp -> Exp | Expr.Log -> Log
              | Expr.Sin -> Sin | Expr.Cos -> Cos | Expr.Floor -> Floor | Expr.Ceil -> Ceil
              | Expr.Pow -> Pow | Expr.Min -> Min | Expr.Max -> Max)
              args
      in
      Hashtbl.replace class_of (Dag.id t) c)
    (Dag.post_order roots);
  let info = Array.of_list (List.rev !made) in
  let n = Array.length info in
  (* Each class's range of shifts, from the roots down; classes are
     numbered operands first. *)
  let lo = Array.make n max_int and hi = Array.make n min_int in
  let widen k a b =
    lo.(k) <- Int.min lo.(k) a;
    hi.(k) <- Int.max hi.(k) b
  in
  List.iter
    (fun t ->
      let k, s = of_node t in
      let s = Option.value s ~default:0 in
      widen k s s)
    roots;
  for k = n - 1 downto 0 do
    match info.(k) with
    | Instr (_, operands) ->
        List.iter
          (fun (j, r) ->
            let r = Option.value r ~default:0 in
            widen j (lo.(k) + r) (hi.(k) + r))
          operands
    | Load _ | Value _ -> ()
  done;
  (* Fused forms, readers first: a computed class read by exactly one
     operand of the body, not the result, folds into its reader when the
     pair is one of the forms of [fuse]. The reader then reads the
     producer's operands at the composed offsets, and the producer gets
     no instruction and no slot. A class that folds into its reader
     absorbs nothing itself. *)
  let uses = Array.make n 0 in
  Array.iter
    (function
      | Instr (_, operands) -> List.iter (fun (j, _) -> uses.(j) <- uses.(j) + 1) operands
      | Load _ | Value _ -> ())
    info;
  let root_class, root_shift = of_node root in
  let folded = Array.make n false in
  (* Class [k]'s operands as (class, offset from [k]'s cell to the operand's). *)
  let reads k operands = List.map (fun (j, r) -> (j, lo.(k) + Option.value r ~default:0 - lo.(j))) operands in
  let emitted = Array.make n None in
  for k = n - 1 downto 0 do
    match info.(k) with
    | Instr (op, operands) when not folded.(k) ->
        let operands = reads k operands in
        let absorb at (j, off) =
          match info.(j) with
          | Instr (op', inner) when uses.(j) = 1 && j <> root_class ->
              Option.map
                (fun f -> (at, j, f, List.map (fun (m, o) -> (m, off + o)) (reads j inner)))
                (fuse op at op')
          | Instr _ | Load _ | Value _ -> None
        in
        emitted.(k) <-
          Some
            (match List.find_map Fun.id (List.mapi absorb operands) with
            | Some (at, j, f, inner) ->
                folded.(j) <- true;
                (f, List.concat (List.mapi (fun i o -> if i = at then inner else [ o ]) operands))
            | None -> (op, operands))
    | Instr _ | Load _ | Value _ -> ()
  done;
  (* Position [j] of class [order.(j)]: loads, constants, instructions. *)
  let order =
    List.init n Fun.id
    |> List.filter (fun k -> not folded.(k))
    |> List.stable_sort (fun a b -> compare (kind info.(a)) (kind info.(b)))
    |> Array.of_list
  in
  let pos = Array.make n 0 in
  Array.iteri (fun j k -> pos.(k) <- j) order;
  let of_kind c f =
    Array.of_list (List.filter_map (fun k -> if kind info.(k) = c then Some (f k) else None) (Array.to_list order))
  in
  let loads =
    of_kind 0 (fun k ->
        match info.(k) with
        | Load (field, at, false) -> (field, at)
        | Load (field, at, true) ->
            (* A shifting load's run starts at its least lane offset. *)
            let last = List.length at - 1 in
            (field, List.mapi (fun d o -> if d = last then lo.(k) else o) at)
        | Value _ | Instr _ -> assert false)
  in
  let consts = of_kind 1 (fun k -> match info.(k) with Value c -> c | Load _ | Instr _ -> assert false) in
  let code =
    of_kind 2 (fun k ->
        let op, operands = Option.get emitted.(k) in
        (k, op, List.map (fun (j, off) -> (pos.(j), off)) operands))
  in
  let result = pos.(root_class) in
  (* From here on [n] counts positions: the classes not folded. *)
  let n = Array.length order in
  let first = n - Array.length code in
  (* Position [j]'s slot, and the last instruction reading it (-1: none). *)
  let slot = Array.init n (fun j -> if j < first then j else -1) and last = Array.make n (-1) in
  Array.iteri (fun i (_, _, operands) -> List.iter (fun (j, _) -> last.(j) <- i) operands) code;
  let busy = Array.init n (fun s -> s < first) in
  let release j =
    if j <> result && (j < Array.length loads || j >= first) then busy.(slot.(j)) <- false
  in
  Array.iteri (fun j _ -> if last.(j) < 0 then release j) loads;
  let args = Array.make (per_instr * Array.length code) 0 in
  Array.iteri
    (fun i (k, _, operands) ->
      let a = per_instr * i in
      List.iter (fun (j, _) -> if last.(j) = i then release j) operands;
      let s = ref 0 in
      while busy.(!s) do incr s done;
      busy.(!s) <- true;
      slot.(first + i) <- !s;
      args.(a) <- !s;
      args.(a + 9) <- hi.(k) - lo.(k);
      List.iteri
        (fun o (j, off) ->
          args.(a + o + 1) <- slot.(j);
          args.(a + o + 5) <- off)
        operands;
      if last.(first + i) < 0 then release (first + i))
    code;
  let spread k = hi.(k) - lo.(k) in
  let n_slots = 1 + Array.fold_left Int.max (first - 1) slot in
  {
    loads;
    load_extra = of_kind 0 spread;
    consts;
    ops = Array.map (fun (_, op, _) -> op) code;
    args;
    n_slots;
    pad = Array.fold_left (fun m k -> Int.max m (spread k)) 0 order;
    result = slot.(result);
    result_off = Option.value root_shift ~default:0 - lo.(root_class);
  }

let frame p ~lanes =
  let stride = stride p ~lanes in
  let f = Array.make (p.n_slots * stride) 0. in
  let base = Array.length p.loads in
  Array.iteri (fun i c -> Array.fill f ((base + i) * stride) stride c) p.consts;
  f

(* Float-array accessors: unboxed loads and stores on the frame. *)
external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"

(* Branchless: a compare-to-mask and a convert, no data-dependent jump. *)
let[@inline] of_bool b = Float.of_int (Bool.to_int b)
let[@inline] truth v = Bool.to_int (v <> 0.)

(* Stdlib's Float.min and Float.max, restated so the lane loops inline
   them instead of calling through boxed floats. *)
let[@inline] fmin (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if y <> y then y else x
  else if x <> x then x
  else y

let[@inline] fmax (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if x <> x then x else y
  else if y <> y then y
  else x

(* Semantics are those of Interp.eval_expr: comparisons yield 1.0 / 0.0,
   any non-zero value is true, && and || do not short-circuit, and both
   select branches were computed by earlier instructions. Each case is
   its own lane loop, written out so that no float is ever boxed. Slot
   [s] starts at [s * stride]; instruction [i] writes the first
   [width = lanes + extra.(i)] cells of its slot (its class's lanes,
   widened by its shift spread) and reads operand cell [k + off] for
   cell [k]. A case whose lane is a few machine instructions runs four
   cells per iteration ([!j] to [!j + 3], below [t], which is [width]
   rounded down to a multiple of 4) and then a plain loop over the
   rest: the loop control, not the arithmetic, is what such a lane
   costs. A libm call costs more than the control it would save, so
   those cases keep the plain loop. A fused form computes its inner
   operation in a register, in the evaluator's operand order: when both
   operands of an x86 arithmetic instruction are NaNs it returns the
   destination's, and the compiler makes a loaded first operand of a
   commutative operation the memory operand, so [x * (y - z)] binds [x]
   before computing [y - z] to keep [x]'s NaN. Every cell reads its
   operands before its own store, and operands sit at the same or a
   later cell, so a destination may share an operand's slot. *)
let exec p ~lanes fr =
  let stride = Array.length fr / p.n_slots in
  if lanes < 1 || lanes + p.pad > stride || stride * p.n_slots <> Array.length fr then
    invalid_arg "Compile.exec: the frame does not hold [lanes] lanes";
  let args = p.args in
  for i = 0 to Array.length p.ops - 1 do
    let a = per_instr * i in
    let width = lanes + Array.unsafe_get args (a + 9) in
    let n = width - 1 and t = width land -4 in
    let d = Array.unsafe_get args a * stride
    and x = (Array.unsafe_get args (a + 1) * stride) + Array.unsafe_get args (a + 5)
    and y = (Array.unsafe_get args (a + 2) * stride) + Array.unsafe_get args (a + 6)
    and j = ref 0 in
    match Array.unsafe_get p.ops i with
    | Neg ->
        while !j < t do
          let a = d + !j and b = x + !j in
          set fr a (-.get fr b);
          set fr (a + 1) (-.get fr (b + 1));
          set fr (a + 2) (-.get fr (b + 2));
          set fr (a + 3) (-.get fr (b + 3));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (-.get fr (x + l)) done
    | Not ->
        while !j < t do
          let a = d + !j and b = x + !j in
          set fr a (of_bool (get fr b = 0.));
          set fr (a + 1) (of_bool (get fr (b + 1) = 0.));
          set fr (a + 2) (of_bool (get fr (b + 2) = 0.));
          set fr (a + 3) (of_bool (get fr (b + 3) = 0.));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (of_bool (get fr (x + l) = 0.)) done
    | Add ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (get fr b +. get fr c);
          set fr (a + 1) (get fr (b + 1) +. get fr (c + 1));
          set fr (a + 2) (get fr (b + 2) +. get fr (c + 2));
          set fr (a + 3) (get fr (b + 3) +. get fr (c + 3));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (get fr (x + l) +. get fr (y + l)) done
    | Sub ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (get fr b -. get fr c);
          set fr (a + 1) (get fr (b + 1) -. get fr (c + 1));
          set fr (a + 2) (get fr (b + 2) -. get fr (c + 2));
          set fr (a + 3) (get fr (b + 3) -. get fr (c + 3));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (get fr (x + l) -. get fr (y + l)) done
    | Mul ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (get fr b *. get fr c);
          set fr (a + 1) (get fr (b + 1) *. get fr (c + 1));
          set fr (a + 2) (get fr (b + 2) *. get fr (c + 2));
          set fr (a + 3) (get fr (b + 3) *. get fr (c + 3));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (get fr (x + l) *. get fr (y + l)) done
    | Div ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (get fr b /. get fr c);
          set fr (a + 1) (get fr (b + 1) /. get fr (c + 1));
          set fr (a + 2) (get fr (b + 2) /. get fr (c + 2));
          set fr (a + 3) (get fr (b + 3) /. get fr (c + 3));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (get fr (x + l) /. get fr (y + l)) done
    | Lt ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (of_bool (get fr b < get fr c));
          set fr (a + 1) (of_bool (get fr (b + 1) < get fr (c + 1)));
          set fr (a + 2) (of_bool (get fr (b + 2) < get fr (c + 2)));
          set fr (a + 3) (of_bool (get fr (b + 3) < get fr (c + 3)));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (of_bool (get fr (x + l) < get fr (y + l))) done
    | Le ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (of_bool (get fr b <= get fr c));
          set fr (a + 1) (of_bool (get fr (b + 1) <= get fr (c + 1)));
          set fr (a + 2) (of_bool (get fr (b + 2) <= get fr (c + 2)));
          set fr (a + 3) (of_bool (get fr (b + 3) <= get fr (c + 3)));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (of_bool (get fr (x + l) <= get fr (y + l))) done
    | Gt ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (of_bool (get fr b > get fr c));
          set fr (a + 1) (of_bool (get fr (b + 1) > get fr (c + 1)));
          set fr (a + 2) (of_bool (get fr (b + 2) > get fr (c + 2)));
          set fr (a + 3) (of_bool (get fr (b + 3) > get fr (c + 3)));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (of_bool (get fr (x + l) > get fr (y + l))) done
    | Ge ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (of_bool (get fr b >= get fr c));
          set fr (a + 1) (of_bool (get fr (b + 1) >= get fr (c + 1)));
          set fr (a + 2) (of_bool (get fr (b + 2) >= get fr (c + 2)));
          set fr (a + 3) (of_bool (get fr (b + 3) >= get fr (c + 3)));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (of_bool (get fr (x + l) >= get fr (y + l))) done
    | Eq ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (of_bool (get fr b = get fr c));
          set fr (a + 1) (of_bool (get fr (b + 1) = get fr (c + 1)));
          set fr (a + 2) (of_bool (get fr (b + 2) = get fr (c + 2)));
          set fr (a + 3) (of_bool (get fr (b + 3) = get fr (c + 3)));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (of_bool (get fr (x + l) = get fr (y + l))) done
    | Ne ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (of_bool (get fr b <> get fr c));
          set fr (a + 1) (of_bool (get fr (b + 1) <> get fr (c + 1)));
          set fr (a + 2) (of_bool (get fr (b + 2) <> get fr (c + 2)));
          set fr (a + 3) (of_bool (get fr (b + 3) <> get fr (c + 3)));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (of_bool (get fr (x + l) <> get fr (y + l))) done
    | And ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (Float.of_int (truth (get fr b) land truth (get fr c)));
          set fr (a + 1) (Float.of_int (truth (get fr (b + 1)) land truth (get fr (c + 1))));
          set fr (a + 2) (Float.of_int (truth (get fr (b + 2)) land truth (get fr (c + 2))));
          set fr (a + 3) (Float.of_int (truth (get fr (b + 3)) land truth (get fr (c + 3))));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (Float.of_int (truth (get fr (x + l)) land truth (get fr (y + l)))) done
    | Or ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (Float.of_int (truth (get fr b) lor truth (get fr c)));
          set fr (a + 1) (Float.of_int (truth (get fr (b + 1)) lor truth (get fr (c + 1))));
          set fr (a + 2) (Float.of_int (truth (get fr (b + 2)) lor truth (get fr (c + 2))));
          set fr (a + 3) (Float.of_int (truth (get fr (b + 3)) lor truth (get fr (c + 3))));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (Float.of_int (truth (get fr (x + l)) lor truth (get fr (y + l)))) done
    | Select ->
        let z = (Array.unsafe_get args (a + 3) * stride) + Array.unsafe_get args (a + 7) in
        let e = y - z in
        while !j < t do
          let a = d + !j and b = x + !j and c = z + !j in
          set fr a (get fr (c + (truth (get fr b) * e)));
          set fr (a + 1) (get fr (c + 1 + (truth (get fr (b + 1)) * e)));
          set fr (a + 2) (get fr (c + 2 + (truth (get fr (b + 2)) * e)));
          set fr (a + 3) (get fr (c + 3 + (truth (get fr (b + 3)) * e)));
          j := !j + 4
        done;
        for l = t to n do
          set fr (d + l) (get fr (z + l + (truth (get fr (x + l)) * e)))
        done
    | Sqrt ->
        while !j < t do
          let a = d + !j and b = x + !j in
          set fr a (Float.sqrt (get fr b));
          set fr (a + 1) (Float.sqrt (get fr (b + 1)));
          set fr (a + 2) (Float.sqrt (get fr (b + 2)));
          set fr (a + 3) (Float.sqrt (get fr (b + 3)));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (Float.sqrt (get fr (x + l))) done
    | Abs ->
        while !j < t do
          let a = d + !j and b = x + !j in
          set fr a (Float.abs (get fr b));
          set fr (a + 1) (Float.abs (get fr (b + 1)));
          set fr (a + 2) (Float.abs (get fr (b + 2)));
          set fr (a + 3) (Float.abs (get fr (b + 3)));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (Float.abs (get fr (x + l))) done
    | Exp -> for l = 0 to n do set fr (d + l) (Float.exp (get fr (x + l))) done
    | Log -> for l = 0 to n do set fr (d + l) (Float.log (get fr (x + l))) done
    | Sin -> for l = 0 to n do set fr (d + l) (Float.sin (get fr (x + l))) done
    | Cos -> for l = 0 to n do set fr (d + l) (Float.cos (get fr (x + l))) done
    | Floor -> for l = 0 to n do set fr (d + l) (Float.floor (get fr (x + l))) done
    | Ceil -> for l = 0 to n do set fr (d + l) (Float.ceil (get fr (x + l))) done
    | Pow -> for l = 0 to n do set fr (d + l) (Float.pow (get fr (x + l)) (get fr (y + l))) done
    | Min ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (fmin (get fr b) (get fr c));
          set fr (a + 1) (fmin (get fr (b + 1)) (get fr (c + 1)));
          set fr (a + 2) (fmin (get fr (b + 2)) (get fr (c + 2)));
          set fr (a + 3) (fmin (get fr (b + 3)) (get fr (c + 3)));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (fmin (get fr (x + l)) (get fr (y + l))) done
    | Max ->
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j in
          set fr a (fmax (get fr b) (get fr c));
          set fr (a + 1) (fmax (get fr (b + 1)) (get fr (c + 1)));
          set fr (a + 2) (fmax (get fr (b + 2)) (get fr (c + 2)));
          set fr (a + 3) (fmax (get fr (b + 3)) (get fr (c + 3)));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) (fmax (get fr (x + l)) (get fr (y + l))) done
    | Scale_sub ->
        let z = (Array.unsafe_get args (a + 3) * stride) + Array.unsafe_get args (a + 7) in
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j and e = z + !j in
          let v = get fr b in
          set fr a (v *. (get fr c -. get fr e));
          let v = get fr (b + 1) in
          set fr (a + 1) (v *. (get fr (c + 1) -. get fr (e + 1)));
          let v = get fr (b + 2) in
          set fr (a + 2) (v *. (get fr (c + 2) -. get fr (e + 2)));
          let v = get fr (b + 3) in
          set fr (a + 3) (v *. (get fr (c + 3) -. get fr (e + 3)));
          j := !j + 4
        done;
        for l = t to n do
          let v = get fr (x + l) in
          set fr (d + l) (v *. (get fr (y + l) -. get fr (z + l)))
        done
    | Scale_add ->
        let z = (Array.unsafe_get args (a + 3) * stride) + Array.unsafe_get args (a + 7) in
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j and e = z + !j in
          let v = get fr b in
          set fr a (v *. (get fr c +. get fr e));
          let v = get fr (b + 1) in
          set fr (a + 1) (v *. (get fr (c + 1) +. get fr (e + 1)));
          let v = get fr (b + 2) in
          set fr (a + 2) (v *. (get fr (c + 2) +. get fr (e + 2)));
          let v = get fr (b + 3) in
          set fr (a + 3) (v *. (get fr (c + 3) +. get fr (e + 3)));
          j := !j + 4
        done;
        for l = t to n do
          let v = get fr (x + l) in
          set fr (d + l) (v *. (get fr (y + l) +. get fr (z + l)))
        done
    | Add_add ->
        let z = (Array.unsafe_get args (a + 3) * stride) + Array.unsafe_get args (a + 7) in
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j and e = z + !j in
          set fr a ((get fr b +. get fr c) +. get fr e);
          set fr (a + 1) ((get fr (b + 1) +. get fr (c + 1)) +. get fr (e + 1));
          set fr (a + 2) ((get fr (b + 2) +. get fr (c + 2)) +. get fr (e + 2));
          set fr (a + 3) ((get fr (b + 3) +. get fr (c + 3)) +. get fr (e + 3));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) ((get fr (x + l) +. get fr (y + l)) +. get fr (z + l)) done
    | Sub_add ->
        let z = (Array.unsafe_get args (a + 3) * stride) + Array.unsafe_get args (a + 7) in
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j and e = z + !j in
          set fr a ((get fr b -. get fr c) +. get fr e);
          set fr (a + 1) ((get fr (b + 1) -. get fr (c + 1)) +. get fr (e + 1));
          set fr (a + 2) ((get fr (b + 2) -. get fr (c + 2)) +. get fr (e + 2));
          set fr (a + 3) ((get fr (b + 3) -. get fr (c + 3)) +. get fr (e + 3));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) ((get fr (x + l) -. get fr (y + l)) +. get fr (z + l)) done
    | Mul_add ->
        let z = (Array.unsafe_get args (a + 3) * stride) + Array.unsafe_get args (a + 7) in
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j and e = z + !j in
          set fr a ((get fr b *. get fr c) +. get fr e);
          set fr (a + 1) ((get fr (b + 1) *. get fr (c + 1)) +. get fr (e + 1));
          set fr (a + 2) ((get fr (b + 2) *. get fr (c + 2)) +. get fr (e + 2));
          set fr (a + 3) ((get fr (b + 3) *. get fr (c + 3)) +. get fr (e + 3));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) ((get fr (x + l) *. get fr (y + l)) +. get fr (z + l)) done
    | Mul_sub ->
        let z = (Array.unsafe_get args (a + 3) * stride) + Array.unsafe_get args (a + 7) in
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j and e = z + !j in
          set fr a ((get fr b *. get fr c) -. get fr e);
          set fr (a + 1) ((get fr (b + 1) *. get fr (c + 1)) -. get fr (e + 1));
          set fr (a + 2) ((get fr (b + 2) *. get fr (c + 2)) -. get fr (e + 2));
          set fr (a + 3) ((get fr (b + 3) *. get fr (c + 3)) -. get fr (e + 3));
          j := !j + 4
        done;
        for l = t to n do set fr (d + l) ((get fr (x + l) *. get fr (y + l)) -. get fr (z + l)) done
    | Select_gt ->
        let z = (Array.unsafe_get args (a + 3) * stride) + Array.unsafe_get args (a + 7)
        and w = (Array.unsafe_get args (a + 4) * stride) + Array.unsafe_get args (a + 8) in
        let e = z - w in
        while !j < t do
          let a = d + !j and b = x + !j and c = y + !j and f = w + !j in
          set fr a (get fr (f + (Bool.to_int (get fr b > get fr c) * e)));
          set fr (a + 1) (get fr (f + 1 + (Bool.to_int (get fr (b + 1) > get fr (c + 1)) * e)));
          set fr (a + 2) (get fr (f + 2 + (Bool.to_int (get fr (b + 2) > get fr (c + 2)) * e)));
          set fr (a + 3) (get fr (f + 3 + (Bool.to_int (get fr (b + 3) > get fr (c + 3)) * e)));
          j := !j + 4
        done;
        for l = t to n do
          set fr (d + l) (get fr (w + l + (Bool.to_int (get fr (x + l) > get fr (y + l)) * e)))
        done
  done

let body ~access b =
  let p = lower ~lane:(fun _ -> Fixed) b in
  let reads = Array.map (fun (field, offsets) -> access ~field ~offsets) p.loads in
  let fr = frame p ~lanes:1 in
  fun ctx ->
    for k = 0 to Array.length reads - 1 do
      fr.(k) <- reads.(k) ctx
    done;
    exec p ~lanes:1 fr;
    fr.(p.result)

(* Loads ------------------------------------------------------------------ *)

type ring = { data : float array; cap : int; mutable newest : int; mutable head : int }

let resident data =
  let n = Array.length data in
  { data; cap = n; newest = n - 1; head = n - 1 }

(* The lanes of one fill run along the program's innermost axis. [step]
   is 1 when the tap spans that axis (its last axis, stride 1), and 0
   when every lane reads the same element; the other axes are fixed
   across the lanes. A run fills [lanes + extra] cells: its load class's
   lanes, widened by the spread of its lane offsets. *)
type tap = {
  src : ring;
  axes : int array;
  extents : int array;
  strides : int array;
  offsets : int array;
  step : int;
  shift : int;  (* element distance from a lane's cell to what it reads *)
  extra : int;
  boundary : Boundary.t;
}

let taps p ~shape source =
  Array.mapi
    (fun k (field, offsets) ->
      let src, axes, boundary = source field in
      let offsets = Array.of_list offsets in
      let extents = Array.map (fun a -> shape.(a)) axes in
      let n = Array.length axes in
      let strides = Array.make n 1 in
      for d = n - 2 downto 0 do
        strides.(d) <- strides.(d + 1) * extents.(d + 1)
      done;
      if Array.length offsets <> n then invalid_arg "Compile.taps: one offset per axis";
      let shift = ref 0 in
      Array.iteri (fun d o -> shift := !shift + (o * strides.(d))) offsets;
      let step = if n > 0 && axes.(n - 1) = Array.length shape - 1 then 1 else 0 in
      let extra = p.load_extra.(k) in
      if extra > 0 && step = 1 && boundary = Boundary.Copy then
        invalid_arg ("Compile.taps: a load of " ^ field ^ " with a Copy boundary cannot shift");
      { src; axes; extents; strides; offsets; step; shift = !shift; extra; boundary })
    p.loads

(* Copy [len] stream elements, [e], [e + step], ... ([step] is 0 or 1),
   into [fr] from [dst]. Every element read must still be in the ring;
   element [e] then sits [newest - e] places behind [head]. A run is at
   most two blits, split where it wraps the ring; a step-0 run stores one
   element (a loop: [Array.fill] would box it). *)
let[@inline] read_run r e step fr dst len =
  assert (e >= 0 && e > r.newest - r.cap && e + (step * (len - 1)) <= r.newest);
  let i = r.head - (r.newest - e) in
  let i = if i < 0 then i + r.cap else i in
  if step = 0 then begin
    let x = r.data.(i) in
    for l = dst to dst + len - 1 do
      set fr l x
    done
  end
  else begin
    let m = Int.min len (r.cap - i) in
    Array.blit r.data i fr dst m;
    if m < len then Array.blit r.data 0 fr (dst + m) (len - m)
  end

let fill_slot t ~idx ~lanes fr ~dst oob =
  let width = lanes + t.extra in
  let fixed = Array.length t.axes - t.step in
  let center = ref 0 and in_bounds = ref true in
  for d = 0 to fixed - 1 do
    let base = idx.(Array.unsafe_get t.axes d) in
    let target = base + Array.unsafe_get t.offsets d in
    if target < 0 || target >= Array.unsafe_get t.extents d then in_bounds := false;
    center := !center + (base * Array.unsafe_get t.strides d)
  done;
  (* Cells [lo, hi) read in bounds. *)
  let lo, hi =
    if t.step = 0 then (0, if !in_bounds then width else 0)
    else begin
      let base = idx.(Array.length idx - 1) in
      let target = base + t.offsets.(fixed) in
      center := !center + base;
      let lo = if !in_bounds then Int.min width (Int.max 0 (-target)) else width in
      (lo, Int.max lo (Int.min width (t.extents.(fixed) - target)))
    end
  in
  if hi > lo then read_run t.src (!center + t.shift + (t.step * lo)) t.step fr (dst + lo) (hi - lo);
  (* The other cells take the boundary value (a [Copy] tap has no extra
     cells: cell [l] is lane [l], which reads its own cell). *)
  for k = 0 to lo + width - hi - 1 do
    let l = if k < lo then k else hi + k - lo in
    match t.boundary with
    | Boundary.Constant c -> fr.(dst + l) <- c
    | Boundary.Copy -> read_run t.src (!center + (t.step * l)) 0 fr (dst + l) 1
  done;
  (* Lane [l]'s loads read cells [l] to [l + extra], both ends among
     them: its cell is marked for shrink validity if either end is out
     of bounds. *)
  match oob with
  | None -> ()
  | Some oob ->
      for l = 0 to Int.min lanes lo - 1 do
        oob.(l) <- true
      done;
      for l = Int.max 0 (hi - t.extra) to lanes - 1 do
        oob.(l) <- true
      done

let fill ?oob taps ~idx ~lanes ~stride fr =
  if Array.length taps * stride > Array.length fr then
    invalid_arg "Compile.fill: the frame is too small for [lanes]";
  (match oob with
  | Some oob ->
      if Array.length oob < lanes then invalid_arg "Compile.fill: the flags are too small for [lanes]";
      Array.fill oob 0 lanes false
  | None -> ());
  for slot = 0 to Array.length taps - 1 do
    let t = taps.(slot) in
    if lanes + t.extra > stride then invalid_arg "Compile.fill: a run is wider than the stride";
    fill_slot t ~idx ~lanes fr ~dst:(slot * stride) oob
  done

let rec advance ~shape idx d inc =
  if d >= 0 then begin
    let v = idx.(d) + inc in
    if v >= shape.(d) && d > 0 then begin
      idx.(d) <- 0;
      advance ~shape idx (d - 1) 1
    end
    else idx.(d) <- v
  end
