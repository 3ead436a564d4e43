open Sf_ir

type op =
  | Neg | Not | Add | Sub | Mul | Div | Lt | Le | Gt | Ge | Eq | Ne | And | Or | Select
  | Sqrt | Abs | Exp | Log | Sin | Cos | Floor | Ceil | Pow | Min | Max

type program = {
  loads : (string * int list) array;
  consts : float array;
  ops : op array;
  args : int array;
  n_slots : int;
  result : int;
}

let loads p = p.loads
let result_slot p = p.result

(* Slots: loads first (slot k is load k), then constants, then the
   computed nodes in depth-first post-order from the result, each in the
   lowest free slot. A load or computed value frees its slot after its
   last reader, or at once if nothing reads it; constants and the result
   stay pinned. A destination may take a slot an operand frees at the
   same instruction: every lane loop reads lane l before writing it.
   Every node of the body is scheduled, including bindings the result
   never reads: their predicated loads keep feeding the validity mask. *)
let lower (b : Expr.body) =
  let named, root = Dag.of_body_named b in
  let kind t = match Dag.view t with Dag.Access _ -> 0 | Dag.Const _ -> 1 | _ -> 2 in
  let nodes =
    Dag.post_order (root :: List.map snd named)
    |> List.stable_sort (fun a b -> compare (kind a) (kind b))
  in
  let node_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iteri (fun i t -> Hashtbl.replace node_of (Dag.id t) i) nodes;
  let node t = Hashtbl.find node_of (Dag.id t) in
  let instr t =
    let op, operands =
      match Dag.view t with
      | Dag.Const _ | Dag.Access _ -> assert false
      | Dag.Var v -> invalid_arg (Printf.sprintf "Compile.lower: unbound variable %s" v)
      | Dag.Unary (op, x) -> ((match op with Expr.Neg -> Neg | Expr.Not -> Not), [ x ])
      | Dag.Binary (op, x, y) ->
          ( (match op with
            | Expr.Add -> Add | Expr.Sub -> Sub | Expr.Mul -> Mul | Expr.Div -> Div
            | Expr.Lt -> Lt | Expr.Le -> Le | Expr.Gt -> Gt | Expr.Ge -> Ge
            | Expr.Eq -> Eq | Expr.Ne -> Ne | Expr.And -> And | Expr.Or -> Or),
            [ x; y ] )
      | Dag.Select { cond; if_true; if_false } -> (Select, [ cond; if_true; if_false ])
      | Dag.Call (f, args) ->
          if List.length args <> Expr.func_arity f then
            invalid_arg (Printf.sprintf "Compile.lower: wrong arity for %s" (Expr.func_name f));
          ( (match f with
            | Expr.Sqrt -> Sqrt | Expr.Abs -> Abs | Expr.Exp -> Exp | Expr.Log -> Log
            | Expr.Sin -> Sin | Expr.Cos -> Cos | Expr.Floor -> Floor | Expr.Ceil -> Ceil
            | Expr.Pow -> Pow | Expr.Min -> Min | Expr.Max -> Max),
            args )
    in
    (op, List.map node operands)
  in
  let of_kind k f =
    Array.of_list (List.filter_map (fun t -> if kind t = k then Some (f t) else None) nodes)
  in
  let load t = match Dag.view t with Dag.Access a -> (a.field, a.offsets) | _ -> assert false in
  let const t = match Dag.view t with Dag.Const c -> c | _ -> assert false in
  let loads = of_kind 0 load and consts = of_kind 1 const and code = of_kind 2 instr in
  let n = List.length nodes and result = node root in
  let first = n - Array.length code in
  (* Node [j]'s slot, and the last instruction reading it (-1: none). *)
  let slot = Array.init n (fun j -> if j < first then j else -1) and last = Array.make n (-1) in
  Array.iteri (fun i (_, operands) -> List.iter (fun j -> last.(j) <- i) operands) code;
  let busy = Array.init n (fun s -> s < first) in
  let release j =
    if j <> result && (j < Array.length loads || j >= first) then busy.(slot.(j)) <- false
  in
  Array.iteri (fun j _ -> if last.(j) < 0 then release j) loads;
  let args = Array.make (4 * Array.length code) 0 in
  Array.iteri
    (fun i (_, operands) ->
      List.iter (fun j -> if last.(j) = i then release j) operands;
      let s = ref 0 in
      while busy.(!s) do incr s done;
      busy.(!s) <- true;
      slot.(first + i) <- !s;
      List.iteri (fun k j -> args.((4 * i) + k) <- slot.(j)) ((first + i) :: operands);
      if last.(first + i) < 0 then release (first + i))
    code;
  let n_slots = 1 + Array.fold_left Int.max (first - 1) slot in
  { loads; consts; ops = Array.map fst code; args; n_slots; result = slot.(result) }

let frame p ~lanes =
  let f = Array.make (p.n_slots * lanes) 0. in
  let base = Array.length p.loads in
  Array.iteri (fun i c -> Array.fill f ((base + i) * lanes) lanes c) p.consts;
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
   [s] starts at [s * stride]; the first [lanes] of its cells are live.
   A case whose lane is a few machine instructions runs four lanes per
   iteration ([!j] to [!j + 3], below [t], which is [lanes] rounded down
   to a multiple of 4) and then a plain loop over the rest: the loop
   control, not the arithmetic, is what such a lane costs. A libm call
   costs more than the control it would save, so those cases keep the
   plain loop. Every lane reads its operands before its own store, so a
   destination may share an operand's slot. *)
let exec p ~lanes fr =
  let stride = Array.length fr / p.n_slots in
  if lanes < 1 || lanes > stride || stride * p.n_slots <> Array.length fr then
    invalid_arg "Compile.exec: the frame does not hold [lanes] lanes";
  let args = p.args and n = lanes - 1 and t = lanes land -4 in
  for i = 0 to Array.length p.ops - 1 do
    let d = Array.unsafe_get args (4 * i) * stride
    and x = Array.unsafe_get args ((4 * i) + 1) * stride
    and y = Array.unsafe_get args ((4 * i) + 2) * stride
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
        let z = Array.unsafe_get args ((4 * i) + 3) * stride in
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
  done

let body ~access b =
  let p = lower b in
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
   across the lanes. *)
type tap = {
  src : ring;
  axes : int array;
  extents : int array;
  strides : int array;
  offsets : int array;
  step : int;
  shift : int;  (* element distance from a lane's cell to what it reads *)
  boundary : Boundary.t;
}

let tap src ~shape ~axes ~offsets ~boundary =
  let extents = Array.map (fun a -> shape.(a)) axes in
  let n = Array.length axes in
  let strides = Array.make n 1 in
  for d = n - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * extents.(d + 1)
  done;
  if Array.length offsets <> n then invalid_arg "Compile.tap: one offset per axis";
  let shift = ref 0 in
  Array.iteri (fun d o -> shift := !shift + (o * strides.(d))) offsets;
  let step = if n > 0 && axes.(n - 1) = Array.length shape - 1 then 1 else 0 in
  { src; axes; extents; strides; offsets; step; shift = !shift; boundary }

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

let fill_slot t ~idx ~lanes fr ~dst ~oob =
  let fixed = Array.length t.axes - t.step in
  let center = ref 0 and in_bounds = ref true in
  for d = 0 to fixed - 1 do
    let base = idx.(Array.unsafe_get t.axes d) in
    let target = base + Array.unsafe_get t.offsets d in
    if target < 0 || target >= Array.unsafe_get t.extents d then in_bounds := false;
    center := !center + (base * Array.unsafe_get t.strides d)
  done;
  (* Lanes [lo, hi) read in bounds. *)
  let lo, hi =
    if t.step = 0 then (0, if !in_bounds then lanes else 0)
    else begin
      let base = idx.(Array.length idx - 1) in
      let target = base + t.offsets.(fixed) in
      center := !center + base;
      let lo = if !in_bounds then Int.min lanes (Int.max 0 (-target)) else lanes in
      (lo, Int.max lo (Int.min lanes (t.extents.(fixed) - target)))
    end
  in
  if hi > lo then read_run t.src (!center + t.shift + (t.step * lo)) t.step fr (dst + lo) (hi - lo);
  (* The other lanes take the boundary value, and their cells are marked
     for shrink validity. *)
  for k = 0 to lo + lanes - hi - 1 do
    let l = if k < lo then k else hi + k - lo in
    oob.(l) <- true;
    match t.boundary with
    | Boundary.Constant c -> fr.(dst + l) <- c
    | Boundary.Copy -> read_run t.src (!center + (t.step * l)) 0 fr (dst + l) 1
  done

let fill taps ~idx ~lanes ~stride fr ~oob =
  if lanes > stride || Array.length taps * stride > Array.length fr || Array.length oob < lanes
  then invalid_arg "Compile.fill: the frame or the flags are too small for [lanes]";
  for l = 0 to lanes - 1 do
    oob.(l) <- false
  done;
  for slot = 0 to Array.length taps - 1 do
    fill_slot taps.(slot) ~idx ~lanes fr ~dst:(slot * stride) ~oob
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
