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
  args : int array;  (* [per_instr] per instruction: see [exec] *)
  lists : int array array;
      (* The instructions a dispatch runs, in order: past the prologue
         rows, away from the row's ends, reaching its first lanes, its
         last lanes or both; then every instruction. *)
  reads : bool array array;  (* per list, whether it reads each load slot *)
  n_slots : int;
  rings : int;
  period : int;  (* rows per ring: the prologue rows of a plane, plus one *)
  cols : int;
  first_col : int;  (* lanes before [first_col] and from [last_col] on are the row's ends *)
  last_col : int;
  pad : int;
  result : int;
  result_off : int;
}

type lane = Shifts | Fixed | Uniform

(* Per instruction: the destination and four operands, each a slot, an
   offset and a ring shift (-1 for a plain slot; an absent operand is
   slot 0), then the extra cells; for a ring's variant other than its
   top, how many lanes its least lane shift is below the top's and its
   greatest above; and 2 for such a variant, else 1 if the instruction
   reads or writes a ring, else 0. *)
let per_instr = 19

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
let rebind p f = { p with loads = Array.map (fun (field, offsets) -> (f field, offsets)) p.loads }
let instructions p = Array.length p.ops
let rolling_instructions p = Array.length p.lists.(0)
let rings p = p.rings
let ring_rows p = p.rings * p.period
let stride p ~lanes = (if p.rings > 0 then Int.max lanes p.cols else lanes) + p.pad
let result p ~stride = (p.result * stride) + p.result_off

(* Classes are keyed bottom-up over the DAG in post-order, one hash
   lookup per node, modulo a lane shift: lane-shift classes
   ("variants"). A shifting load drops its lane offset into its shift;
   an operation takes the least shift of its lane-dependent operands
   and keeps the others relative to it. A node with no shift reads no
   lane (only constants and loads that do not depend on the lane feed
   it): any lane of its variant holds its value. The variants are then
   keyed once more, in the same order and the same way, modulo a row
   shift too: row-shift classes, whose variants compute one function of
   the position, each read at its own row shift. *)
type key =
  | Leaf of int  (* a constant or an unshifted load: its DAG node *)
  | Run of string * int list  (* a shifting load at offset 0 *)
  | Node of op * (int * int option) list  (* operand classes and lane shifts relative to the node's *)
  | Shifted of op * (int * int option * int option) list
      (* operand row-shift classes, and their row and lane shifts relative to the node's *)

type cls =
  | Load of string * int list * bool  (* field, offsets, whether it shifts along the lane *)
  | Value of float
  | Instr of op * (int * int option) list

let kind = function Load _ -> 0 | Value _ -> 1 | Instr _ -> 2

(* A load's shift along one axis, whose offset sits at [at] in
   [offsets], and its offsets with a shifting one set to 0. *)
let axis_shift cls offsets at =
  match cls with
  | Uniform -> (None, offsets)
  | Fixed -> (Some 0, offsets)
  | Shifts when at < 0 -> (Some 0, offsets)
  | Shifts -> (Some (List.nth offsets at), List.mapi (fun i o -> if i = at then 0 else o) offsets)

let least shifts =
  List.fold_left
    (fun m s -> match (m, s) with Some a, Some b -> Some (Int.min a b) | None, s | s, None -> s)
    None shifts

(* Each variant then runs over the lane shifts of its nodes, widened
   top-down from the roots: an operand read at relative shift [r] runs
   over the user's range plus [r]. A variant's range is exactly the hull
   of its nodes' shifts, so a load variant spans its loads' lane offsets
   and no more.

   Rings: the emitted variants of a row-shift class other than the
   result's compute one function at several rows. When there are two or
   more, the class lives in a ring of [period] frame rows, indexed by
   absolute row and lane: each variant writes and reads the ring row of
   the dispatch's row plus its row shift, at absolute lanes. The variant
   at the greatest row shift (the newest row) is the class's top.
   [period - 1] is the greatest spread of any ring's row shifts, so a
   dispatch at a row at least that far into its plane finds every older
   row some earlier dispatch's top wrote, each over the lanes from the
   top's least lane shift to the row's end plus its greatest. There it
   runs a rolling list, in which each ring's top alone computes and its
   other variants are read from the ring, except where a read reaches
   lanes outside those: before [first_col], where some variant's least
   lane shift is below its top's, and from [last_col], where some
   greatest is above. A dispatch that reaches them runs a list in which
   those variants compute themselves, over those lanes alone. Any other
   dispatch runs every instruction.

   Slots: load variants first (slot k is load k), then constants, then
   the computed variants in post-order from the result, each in the
   lowest free slot unless it lives in a ring. A load or computed value
   frees its slot after its last reader, or at once if nothing reads it;
   constants and the result stay pinned. A destination may take a slot
   an operand frees at the same instruction: a lane loop reads cell
   [k + off] ([off >= 0]) before it writes cell [k], in increasing [k].
   Every node of the body is scheduled, including bindings the result
   never reads: their loads still widen their variants, which the
   validity flags read. A rolling dispatch runs only what the result
   reads, and a ring's top in place of its other variants. *)
let lower ?rows ~lane (b : Expr.body) =
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
    let shift = least (List.map snd operands) in
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
  (* Each variant's row-shift class and row shift, keyed in the same
     order; without [rows], each variant is a class of its own. *)
  let row_class = Array.init n Fun.id and row_shift = Array.make n None in
  let cols =
    match rows with
    | None -> 0
    | Some (cols, row) ->
        let classes : (key, int) Hashtbl.t = Hashtbl.create 64 in
        let intern key =
          match Hashtbl.find_opt classes key with
          | Some c -> c
          | None ->
              let c = Hashtbl.length classes in
              Hashtbl.add classes key c;
              c
        in
        Array.iteri
          (fun k c ->
            let key, shift =
              match c with
              | Value _ -> (Leaf k, None)
              | Load (field, at, _) ->
                  let n = List.length at in
                  let shift, rat = axis_shift (row field) at (if lane field = Uniform then n - 1 else n - 2) in
                  (Run (field, rat), shift)
              | Instr (op, operands) ->
                  let shift = least (List.map (fun (j, _) -> row_shift.(j)) operands) in
                  let rel j = Option.map (fun s -> s - Option.get shift) row_shift.(j) in
                  (Shifted (op, List.map (fun (j, s) -> (row_class.(j), rel j, s)) operands), shift)
            in
            row_class.(k) <- intern key;
            row_shift.(k) <- shift)
          info;
        cols
  in
  (* Each variant's range of lane shifts, from the roots down; variants
     are numbered operands first. *)
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
  (* Fused forms, readers first: a computed variant read by exactly one
     operand of the body, not the result, folds into its reader when the
     pair is one of the forms of [fuse]. The reader then reads the
     producer's operands at the composed offsets, and the producer gets
     no instruction and no slot. A variant that folds into its reader
     absorbs nothing itself. *)
  let uses = Array.make n 0 in
  Array.iter
    (function
      | Instr (_, operands) -> List.iter (fun (j, _) -> uses.(j) <- uses.(j) + 1) operands
      | Load _ | Value _ -> ())
    info;
  let root_class, root_shift = of_node root in
  let folded = Array.make n false and absorbed = Array.make n None in
  for k = n - 1 downto 0 do
    match info.(k) with
    | Instr (op, operands) when not folded.(k) ->
        let absorb at (j, _) =
          match info.(j) with
          | Instr (op', _) when uses.(j) = 1 && j <> root_class ->
              Option.map (fun f -> (at, j, f)) (fuse op at op')
          | Instr _ | Load _ | Value _ -> None
        in
        absorbed.(k) <- List.find_map Fun.id (List.mapi absorb operands);
        Option.iter (fun (_, j, _) -> folded.(j) <- true) absorbed.(k)
    | Instr _ | Load _ | Value _ -> ()
  done;
  (* Rings: row-shift classes with two or more emitted variants, other
     than the result's. *)
  let members = Array.make n [] in
  Array.iteri
    (fun k c ->
      match (c, row_shift.(k)) with
      | Instr _, Some _ when (not folded.(k)) && row_class.(k) <> row_class.(root_class) ->
          members.(row_class.(k)) <- k :: members.(row_class.(k))
      | _ -> ())
    info;
  let row_shift k = Option.value row_shift.(k) ~default:0 in
  let ring_of = Array.make n (-1) and tops = ref [] in
  let period = ref 1 and first_col = ref 0 and last_col = ref cols and ring_pad = ref 0 in
  let origin = Array.copy lo in
  Array.iter
    (fun vs ->
      if List.compare_length_with vs 2 >= 0 then begin
        let r = List.length !tops in
        let top =
          List.fold_left (fun t k -> if row_shift k > row_shift t then k else t) (List.hd vs) vs
        in
        let low = List.fold_left (fun m k -> Int.min m lo.(k)) max_int vs
        and high = List.fold_left (fun m k -> Int.max m hi.(k)) min_int vs in
        List.iter
          (fun k ->
            ring_of.(k) <- r;
            origin.(k) <- low;
            period := Int.max !period (row_shift top - row_shift k + 1);
            first_col := Int.max !first_col (lo.(top) - lo.(k));
            last_col := Int.min !last_col (cols - hi.(k) + hi.(top)))
          vs;
        ring_pad := Int.max !ring_pad (high - low);
        tops := top :: !tops
      end)
    members;
  let tops = Array.of_list (List.rev !tops) in
  let rings = Array.length tops and period = !period in
  (* Variant [k]'s operands as (variant, offset from [k]'s cell to the
     operand's), the producer's operands in place of a folded one. *)
  let reads k operands =
    List.map (fun (j, r) -> (j, lo.(k) + Option.value r ~default:0 - origin.(j))) operands
  in
  let emitted k =
    match info.(k) with
    | Instr (op, operands) -> (
        let operands = reads k operands in
        match absorbed.(k) with
        | Some (at, j, f) ->
            let off = snd (List.nth operands at) in
            let inner =
              match info.(j) with
              | Instr (_, inner) -> List.map (fun (m, o) -> (m, off + o)) (reads j inner)
              | Load _ | Value _ -> assert false
            in
            (f, List.concat (List.mapi (fun i o -> if i = at then inner else [ o ]) operands))
        | None -> (op, operands))
    | Load _ | Value _ -> assert false
  in
  (* Position [j] of variant [order.(j)]: loads, constants, instructions. *)
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
        let op, operands = emitted k in
        (k, op, List.map (fun (j, off) -> (pos.(j), off)) operands))
  in
  let result = pos.(root_class) in
  (* From here on [n] counts positions: the variants not folded. *)
  let n = Array.length order in
  let first = n - Array.length code in
  let ring j = ring_of.(order.(j)) in
  (* Position [j]'s slot, and the last instruction reading it (-1: none). *)
  let slot = Array.init n (fun j -> if j < first then j else -1) and last = Array.make n (-1) in
  Array.iteri (fun i (_, _, operands) -> List.iter (fun (j, _) -> last.(j) <- i) operands) code;
  let busy = Array.init n (fun s -> s < first) in
  let release j =
    if j <> result && (j < Array.length loads || j >= first) && ring j < 0 then busy.(slot.(j)) <- false
  in
  Array.iteri (fun j _ -> if last.(j) < 0 then release j) loads;
  Array.iteri
    (fun i (_, _, operands) ->
      List.iter (fun (j, _) -> if last.(j) = i then release j) operands;
      if ring (first + i) < 0 then begin
        let s = ref 0 in
        while busy.(!s) do incr s done;
        busy.(!s) <- true;
        slot.(first + i) <- !s;
        if last.(first + i) < 0 then release (first + i)
      end)
    code;
  let n_slots = 1 + Array.fold_left Int.max (first - 1) slot in
  (* Ring [r]'s rows follow the slots, [period] each; a variant's row of
     the ring is the dispatch's row plus its row shift, modulo [period]. *)
  let place j off =
    let k = order.(j) in
    if ring_of.(k) < 0 then (slot.(j), off, -1)
    else (n_slots + (ring_of.(k) * period), off, ((row_shift k mod period) + period) mod period)
  in
  let args = Array.make (per_instr * Array.length code) 0 in
  Array.iteri
    (fun i (k, _, operands) ->
      let set o (s, off, r) =
        let a = (per_instr * i) + (3 * o) in
        args.(a) <- s;
        args.(a + 1) <- off;
        args.(a + 2) <- r
      in
      for o = 0 to 4 do
        set o (0, 0, -1)
      done;
      set 0 (place (first + i) (lo.(k) - origin.(k)));
      List.iteri (fun o (j, off) -> set (o + 1) (place j off)) operands;
      let a = per_instr * i in
      args.(a + 15) <- hi.(k) - lo.(k);
      if ring_of.(k) >= 0 && tops.(ring_of.(k)) <> k then begin
        let top = tops.(ring_of.(k)) in
        args.(a + 16) <- lo.(top) - lo.(k);
        args.(a + 17) <- hi.(k) - hi.(top);
        args.(a + 18) <- 2
      end
      else if ring_of.(k) >= 0 || List.exists (fun (j, _) -> j >= first && ring j >= 0) operands then
        args.(a + 18) <- 1)
    code;
  (* The lists a dispatch past the prologue rows runs: what the result
     reads, with a ring's variants read from the rows its top wrote.
     Where the dispatch reaches the row's first lanes ([left]) or last
     ([right]), a variant whose reads there reach lanes its top did not
     write runs itself. A ring's top runs wherever the ring is read. *)
  let list ~left ~right =
    let live = Array.make n false in
    let rec run j =
      if not live.(j) then begin
        live.(j) <- true;
        let _, _, operands = code.(j - first) in
        List.iter (fun (o, _) -> visit o) operands
      end
    and visit j =
      if j >= first then begin
        let k = order.(j) in
        if ring_of.(k) < 0 then run j
        else begin
          let top = tops.(ring_of.(k)) in
          if (left && lo.(k) < lo.(top)) || (right && hi.(k) > hi.(top)) then run j;
          run pos.(top)
        end
      end
    in
    visit result;
    let l = Array.make (Array.fold_left (fun c b -> c + Bool.to_int b) 0 live) 0 and m = ref 0 in
    Array.iteri
      (fun j b ->
        if b then begin
          l.(!m) <- j - first;
          incr m
        end)
      live;
    l
  in
  let full = Array.init (Array.length code) Fun.id in
  let lists =
    if rings = 0 then Array.make 5 full
    else
      [|
        list ~left:false ~right:false;
        list ~left:true ~right:false;
        list ~left:false ~right:true;
        list ~left:true ~right:true;
        full;
      |]
  in
  (* The load slots a list reads; the result may be a load slot itself. *)
  let reads_of l =
    let r = Array.init (Array.length loads) (fun j -> j = result) in
    Array.iter
      (fun i ->
        let _, _, operands = code.(i) in
        List.iter (fun (j, _) -> if j < Array.length loads then r.(j) <- true) operands)
      l;
    r
  in
  let reads = if rings = 0 then Array.make 5 (reads_of full) else Array.map reads_of lists in
  let spread k = hi.(k) - lo.(k) in
  {
    loads;
    load_extra = of_kind 0 spread;
    consts;
    ops = Array.map (fun (_, op, _) -> op) code;
    args;
    lists;
    reads;
    n_slots;
    rings;
    period;
    cols;
    first_col = !first_col;
    last_col = !last_col;
    pad = Array.fold_left (fun m k -> Int.max m (spread k)) !ring_pad order;
    result = slot.(result);
    result_off = Option.value root_shift ~default:0 - lo.(root_class);
  }

let frame p ~lanes =
  let stride = stride p ~lanes in
  let f = Array.make ((p.n_slots + ring_rows p) * stride) 0. in
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

(* The frame cell of a slot-or-ring reference at [args.(b)]: a slot's
   cell 0, or the ring row and column of the dispatch's cell 0, plus the
   offset. *)
let[@inline] cell args b ~stride ~col ~q ~m =
  let s = Array.unsafe_get args b and r = Array.unsafe_get args (b + 2) in
  (if r < 0 then s * stride else ((s + if q + r >= m then q + r - m else q + r) * stride) + col)
  + Array.unsafe_get args (b + 1)

(* One instruction: [width] cells from frame cell [d], cell [k] reading
   its operands at cells [x + k], [y + k], [z + k] and [w + k]. It is
   kept out of line so that its lane loops have the registers to
   themselves. Semantics are those of Interp.eval_expr: comparisons
   yield 1.0 / 0.0, any non-zero value is true, && and || do not
   short-circuit, and both select branches were computed by earlier
   instructions. Each case is its own lane loop, written out so that no
   float is ever boxed. A case whose lane is a few machine instructions
   runs four cells per iteration ([!j] to [!j + 3], below [t], which is
   [width] rounded down to a multiple of 4) and then a plain loop over
   the rest: the loop control, not the arithmetic, is what such a lane
   costs. A libm call costs more than the control it would save, so
   those cases keep the plain loop. A fused form computes its inner
   operation in a register, in the evaluator's operand order: when both
   operands of an x86 arithmetic instruction are NaNs it returns the
   destination's, and the compiler makes a loaded first operand of a
   commutative operation the memory operand, so [x * (y - z)] binds [x]
   before computing [y - z] to keep [x]'s NaN. Every cell reads its
   operands before its own store, and operands sit at the same or a
   later cell, so a destination may share an operand's slot. *)
let[@inline never] run op fr ~d ~x ~y ~z ~w ~width =
  let n = width - 1 and t = width land -4 and j = ref 0 in
  match op with
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

(* The list a dispatch of [lanes] cells from lane [col] of row [row] of
   its plane runs: the full list in the prologue rows, else the rolling
   list, or a list for the row's first lanes, its last lanes or both. *)
let[@inline] list_index p ~row ~col ~lanes =
  if p.rings = 0 || row < p.period - 1 then 4
  else Bool.to_int (col < p.first_col) + (2 * Bool.to_int (col + lanes > p.last_col))

(* Instruction [i] runs over the dispatch's lanes widened by its class's
   shift spread ([extra]); a slot's cells are relative to the dispatch,
   a ring's absolute (see [cell]). *)
let exec p ~idx ~lanes fr =
  let slots = p.n_slots + ring_rows p in
  let stride = Array.length fr / slots in
  let rank = Array.length idx in
  let col = if rank > 0 then idx.(rank - 1) else 0 and row = if rank > 1 then idx.(rank - 2) else 0 in
  if lanes < 1 || lanes + p.pad > stride || stride * slots <> Array.length fr
     || (p.rings > 0 && (col < 0 || row < 0 || col + lanes + p.pad > stride))
  then invalid_arg "Compile.exec: the frame does not hold [lanes] lanes";
  let args = p.args and m = p.period in
  let q = if p.rings > 0 then row mod m else 0 in
  let k = list_index p ~row ~col ~lanes in
  let list = p.lists.(k) and ends = k >= 1 && k <= 3 in
  for j = 0 to Array.length list - 1 do
    let i = Array.unsafe_get list j in
    let a = per_instr * i in
    let op = Array.unsafe_get p.ops i and extra = Array.unsafe_get args (a + 15) in
    let width = lanes + extra in
    if Array.unsafe_get args (a + 18) = 0 then
      (* No ring: every reference is a slot, relative to the dispatch. *)
      run op fr
        ~d:(Array.unsafe_get args a * stride)
        ~x:((Array.unsafe_get args (a + 3) * stride) + Array.unsafe_get args (a + 4))
        ~y:((Array.unsafe_get args (a + 6) * stride) + Array.unsafe_get args (a + 7))
        ~z:((Array.unsafe_get args (a + 9) * stride) + Array.unsafe_get args (a + 10))
        ~w:((Array.unsafe_get args (a + 12) * stride) + Array.unsafe_get args (a + 13))
        ~width
    else begin
      let d = cell args a ~stride ~col ~q ~m
      and x = cell args (a + 3) ~stride ~col ~q ~m
      and y = cell args (a + 6) ~stride ~col ~q ~m
      and z = cell args (a + 9) ~stride ~col ~q ~m
      and w = cell args (a + 12) ~stride ~col ~q ~m in
      if ends && Array.unsafe_get args (a + 18) = 2 then begin
        (* A variant at a row's ends computes only the lanes its top
           did not write: before the top's least lane, and after its
           greatest. *)
        let c1 = Int.min width (Array.unsafe_get args (a + 16) - col) in
        if c1 > 0 then run op fr ~d ~x ~y ~z ~w ~width:c1;
        let c0 = Int.max (Int.max c1 0) (p.cols - col + extra - Array.unsafe_get args (a + 17)) in
        if c0 < width then
          run op fr ~d:(d + c0) ~x:(x + c0) ~y:(y + c0) ~z:(z + c0) ~w:(w + c0) ~width:(width - c0)
      end
      else run op fr ~d ~x ~y ~z ~w ~width
    end
  done

let body ~access b =
  let p = lower ~lane:(fun _ -> Fixed) b in
  let reads = Array.map (fun (field, offsets) -> access ~field ~offsets) p.loads in
  let fr = frame p ~lanes:1 and idx = [| 0 |] in
  fun ctx ->
    for k = 0 to Array.length reads - 1 do
      fr.(k) <- reads.(k) ctx
    done;
    exec p ~idx ~lanes:1 fr;
    fr.(p.result)

(* Loads ------------------------------------------------------------------ *)

type ring = {
  data : float array;
  cap : int;
  span : int;
  mutable newest : int;
  mutable head : int;
}

let resident data =
  let n = Array.length data in
  { data; cap = n; span = n; newest = n - 1; head = n - 1 }

let view data ~span =
  let cap = Array.length data in
  if span < 0 || span > cap then invalid_arg "Compile.view: the span exceeds the array";
  { data; cap; span; newest = -1; head = -1 }

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

type taps = { prog : program; taps : tap array }

let taps p ~shape source =
  let taps =
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
  in
  { prog = p; taps }

(* Copy [len] stream elements, [e], [e + step], ... ([step] is 0 or 1),
   into [fr] from [dst]. Every element read must be among the last
   [span]; element [e] then sits [newest - e] places behind [head]. A
   run is at most two blits, split where it wraps the ring; a step-0 run
   stores one element (a loop: [Array.fill] would box it). *)
let[@inline] read_run r e step fr dst len =
  assert (e >= 0 && e > r.newest - r.span && e + (step * (len - 1)) <= r.newest);
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

let fill ?oob { prog; taps } ~idx ~lanes ~stride fr =
  if Array.length taps * stride > Array.length fr then
    invalid_arg "Compile.fill: the frame is too small for [lanes]";
  (match oob with
  | Some oob ->
      if Array.length oob < lanes then invalid_arg "Compile.fill: the flags are too small for [lanes]";
      Array.fill oob 0 lanes false
  | None -> ());
  (* Without flags, only the slots the dispatch's list reads. *)
  let rank = Array.length idx in
  let reads =
    prog.reads.(list_index prog ~row:(if rank > 1 then idx.(rank - 2) else 0) ~col:idx.(rank - 1) ~lanes)
  in
  for slot = 0 to Array.length taps - 1 do
    let t = taps.(slot) in
    if lanes + t.extra > stride then invalid_arg "Compile.fill: a run is wider than the stride";
    if Option.is_some oob || reads.(slot) then fill_slot t ~idx ~lanes fr ~dst:(slot * stride) oob
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
