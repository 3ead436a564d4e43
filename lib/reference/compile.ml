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
  in_place : bool;  (* the result is an instruction without shift spread: it may write the caller's row *)
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
   a computed result, then the other computed variants in post-order
   from the result, each in the lowest free slot after them unless it
   lives in a ring. A computed value frees its slot after its last
   reader, or at once if nothing reads it; loads, constants and the
   result stay pinned. No instruction ever writes a load's slot, so
   [fill] may bind a load slot to its source in place, and only the
   result's instruction writes the result's slot, so [exec] may bind it
   to the caller's row. A destination may take a slot a computed operand
   frees at the same instruction: a lane loop reads cell
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
  (* A computed result takes the first slot after the constants before
     any instruction runs, so no other value ever writes that slot. *)
  if result >= first then begin
    slot.(result) <- first;
    busy.(first) <- true
  end;
  let release j = if j <> result && j >= first && ring j < 0 then busy.(slot.(j)) <- false in
  Array.iteri
    (fun i (_, _, operands) ->
      List.iter (fun (j, _) -> if last.(j) = i then release j) operands;
      if ring (first + i) < 0 && first + i <> result then begin
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
    in_place = result >= first && spread root_class = 0;
  }

(* A frame: the cells of its slots, then its ring rows, [stride] cells
   each; and per slot, the array and index its cell 0 is read from.
   Every slot reads its own cells until [fill] binds a load slot to its
   source or [exec] the result's slot to the caller's row. *)
type frame = {
  cells : float array;
  stride : int;
  arrays : float array array;  (* per slot, the array its cells are read from *)
  bases : int array;  (* per slot, the index of its cell 0 there *)
}

let frame p ~lanes =
  let stride = stride p ~lanes in
  let cells = Array.make ((p.n_slots + ring_rows p) * stride) 0. in
  let first = Array.length p.loads in
  Array.iteri (fun i c -> Array.fill cells ((first + i) * stride) stride c) p.consts;
  { cells; stride; arrays = Array.make p.n_slots cells; bases = Array.init p.n_slots (fun s -> s * stride) }

let cells fr = fr.cells

(* Lists are made afresh by each [lower] and kept by [rebind]. *)
let same_lowering p q = p.lists == q.lists

(* Point slot [s] at [data] from [i]; the array is stored only when it
   changes, as a store of a pointer passes the write barrier. *)
let[@inline] bind fr s data i =
  if Array.unsafe_get fr.arrays s != data then Array.unsafe_set fr.arrays s data;
  Array.unsafe_set fr.bases s i

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

(* The array and index of a slot-or-ring reference at [args.(b)]: where
   a slot's cell 0 is bound, or the frame's ring row and column of the
   dispatch's cell 0; plus the offset. *)
let[@inline] array fr args b =
  if Array.unsafe_get args (b + 2) < 0 then Array.unsafe_get fr.arrays (Array.unsafe_get args b) else fr.cells

let[@inline] cell fr args b ~col ~q ~m =
  let s = Array.unsafe_get args b and r = Array.unsafe_get args (b + 2) in
  (if r < 0 then Array.unsafe_get fr.bases s
   else ((s + if q + r >= m then q + r - m else q + r) * fr.stride) + col)
  + Array.unsafe_get args (b + 1)

(* The lane loops, one function per operation: [width] cells from cell
   [d] of [fd], cell [k] reading its operands at [x + k] of [fx],
   [y + k] of [fy], [z + k] of [fz] and [w + k] of [fw]. Each is its own
   function, kept out of line, so that the register allocator sees one
   loop at a time: in one function over every case, it kept the arrays
   and indices on the stack inside the loops. Semantics are those of
   Interp.eval_expr: comparisons yield 1.0 / 0.0, any non-zero value is
   true, && and || do not short-circuit, and both select branches were
   computed by earlier instructions. Each loop is written out so that no
   float is ever boxed. An operation whose lane is a few machine
   instructions runs four cells per iteration (up to [t], which is
   [width] rounded down to a multiple of 4) and then a plain loop over
   the rest: the loop control, not the arithmetic, is what such a lane
   costs. Each operand's index advances by itself, and the plain loop
   continues from those indices, so the four-cell loop holds its arrays,
   its indices and its two bounds in registers and nothing else.
   A libm call costs more than the control it would save, so those
   operations keep the plain loop. A select whose branches share an
   array picks its operand by index, with no data-dependent jump. A
   fused form computes its inner operation in a register, in the
   evaluator's operand order: when both operands of an x86 arithmetic
   instruction are NaNs it returns the destination's, and the compiler
   makes a loaded first operand of a commutative operation the memory
   operand, so [x * (y - z)] binds [x] before computing [y - z] to keep
   [x]'s NaN. Every cell reads its operands before its own store, and
   operands sit at the same or a later cell, so a destination may share
   an operand's slot. *)
let[@inline never] lane_neg fd d fx x width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x in
  while !pa < stop do
    let a = !pa and b = !pb in
    set fd a (-.get fx b);
    set fd (a + 1) (-.get fx (b + 1));
    set fd (a + 2) (-.get fx (b + 2));
    set fd (a + 3) (-.get fx (b + 3));
    pa := a + 4;
    pb := b + 4
  done;
  let a = !pa and b = !pb in
  for l = 0 to fin - a - 1 do set fd (a + l) (-.get fx (b + l)) done

let[@inline never] lane_not fd d fx x width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x in
  while !pa < stop do
    let a = !pa and b = !pb in
    set fd a (of_bool (get fx b = 0.));
    set fd (a + 1) (of_bool (get fx (b + 1) = 0.));
    set fd (a + 2) (of_bool (get fx (b + 2) = 0.));
    set fd (a + 3) (of_bool (get fx (b + 3) = 0.));
    pa := a + 4;
    pb := b + 4
  done;
  let a = !pa and b = !pb in
  for l = 0 to fin - a - 1 do set fd (a + l) (of_bool (get fx (b + l) = 0.)) done

let[@inline never] lane_add fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (get fx b +. get fy c);
    set fd (a + 1) (get fx (b + 1) +. get fy (c + 1));
    set fd (a + 2) (get fx (b + 2) +. get fy (c + 2));
    set fd (a + 3) (get fx (b + 3) +. get fy (c + 3));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (get fx (b + l) +. get fy (c + l)) done

let[@inline never] lane_sub fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (get fx b -. get fy c);
    set fd (a + 1) (get fx (b + 1) -. get fy (c + 1));
    set fd (a + 2) (get fx (b + 2) -. get fy (c + 2));
    set fd (a + 3) (get fx (b + 3) -. get fy (c + 3));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (get fx (b + l) -. get fy (c + l)) done

let[@inline never] lane_mul fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (get fx b *. get fy c);
    set fd (a + 1) (get fx (b + 1) *. get fy (c + 1));
    set fd (a + 2) (get fx (b + 2) *. get fy (c + 2));
    set fd (a + 3) (get fx (b + 3) *. get fy (c + 3));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (get fx (b + l) *. get fy (c + l)) done

let[@inline never] lane_div fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (get fx b /. get fy c);
    set fd (a + 1) (get fx (b + 1) /. get fy (c + 1));
    set fd (a + 2) (get fx (b + 2) /. get fy (c + 2));
    set fd (a + 3) (get fx (b + 3) /. get fy (c + 3));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (get fx (b + l) /. get fy (c + l)) done

let[@inline never] lane_lt fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (of_bool (get fx b < get fy c));
    set fd (a + 1) (of_bool (get fx (b + 1) < get fy (c + 1)));
    set fd (a + 2) (of_bool (get fx (b + 2) < get fy (c + 2)));
    set fd (a + 3) (of_bool (get fx (b + 3) < get fy (c + 3)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (of_bool (get fx (b + l) < get fy (c + l))) done

let[@inline never] lane_le fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (of_bool (get fx b <= get fy c));
    set fd (a + 1) (of_bool (get fx (b + 1) <= get fy (c + 1)));
    set fd (a + 2) (of_bool (get fx (b + 2) <= get fy (c + 2)));
    set fd (a + 3) (of_bool (get fx (b + 3) <= get fy (c + 3)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (of_bool (get fx (b + l) <= get fy (c + l))) done

let[@inline never] lane_gt fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (of_bool (get fx b > get fy c));
    set fd (a + 1) (of_bool (get fx (b + 1) > get fy (c + 1)));
    set fd (a + 2) (of_bool (get fx (b + 2) > get fy (c + 2)));
    set fd (a + 3) (of_bool (get fx (b + 3) > get fy (c + 3)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (of_bool (get fx (b + l) > get fy (c + l))) done

let[@inline never] lane_ge fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (of_bool (get fx b >= get fy c));
    set fd (a + 1) (of_bool (get fx (b + 1) >= get fy (c + 1)));
    set fd (a + 2) (of_bool (get fx (b + 2) >= get fy (c + 2)));
    set fd (a + 3) (of_bool (get fx (b + 3) >= get fy (c + 3)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (of_bool (get fx (b + l) >= get fy (c + l))) done

let[@inline never] lane_eq fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (of_bool (get fx b = get fy c));
    set fd (a + 1) (of_bool (get fx (b + 1) = get fy (c + 1)));
    set fd (a + 2) (of_bool (get fx (b + 2) = get fy (c + 2)));
    set fd (a + 3) (of_bool (get fx (b + 3) = get fy (c + 3)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (of_bool (get fx (b + l) = get fy (c + l))) done

let[@inline never] lane_ne fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (of_bool (get fx b <> get fy c));
    set fd (a + 1) (of_bool (get fx (b + 1) <> get fy (c + 1)));
    set fd (a + 2) (of_bool (get fx (b + 2) <> get fy (c + 2)));
    set fd (a + 3) (of_bool (get fx (b + 3) <> get fy (c + 3)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (of_bool (get fx (b + l) <> get fy (c + l))) done

let[@inline never] lane_and fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (Float.of_int (truth (get fx b) land truth (get fy c)));
    set fd (a + 1) (Float.of_int (truth (get fx (b + 1)) land truth (get fy (c + 1))));
    set fd (a + 2) (Float.of_int (truth (get fx (b + 2)) land truth (get fy (c + 2))));
    set fd (a + 3) (Float.of_int (truth (get fx (b + 3)) land truth (get fy (c + 3))));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (Float.of_int (truth (get fx (b + l)) land truth (get fy (c + l)))) done

let[@inline never] lane_or fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (Float.of_int (truth (get fx b) lor truth (get fy c)));
    set fd (a + 1) (Float.of_int (truth (get fx (b + 1)) lor truth (get fy (c + 1))));
    set fd (a + 2) (Float.of_int (truth (get fx (b + 2)) lor truth (get fy (c + 2))));
    set fd (a + 3) (Float.of_int (truth (get fx (b + 3)) lor truth (get fy (c + 3))));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (Float.of_int (truth (get fx (b + l)) lor truth (get fy (c + l)))) done

let[@inline never] lane_select_shared fd d fx x y fz z width =
  let stop = d + (width land -4) and fin = d + width in
  let e = y - z in
  let pa = ref d and pb = ref x and pc = ref z in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (get fz (c + (truth (get fx b) * e)));
    set fd (a + 1) (get fz (c + 1 + (truth (get fx (b + 1)) * e)));
    set fd (a + 2) (get fz (c + 2 + (truth (get fx (b + 2)) * e)));
    set fd (a + 3) (get fz (c + 3 + (truth (get fx (b + 3)) * e)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do
    set fd (a + l) (get fz (c + l + (truth (get fx (b + l)) * e)))
  done

let[@inline never] lane_select fd d fx x fy y fz z width =
  let n = width - 1 in
  (* The branches live in two arrays: pick one per lane. *)
  for l = 0 to n do
    set fd (d + l) (if get fx (x + l) <> 0. then get fy (y + l) else get fz (z + l))
  done

let[@inline never] lane_sqrt fd d fx x width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x in
  while !pa < stop do
    let a = !pa and b = !pb in
    set fd a (Float.sqrt (get fx b));
    set fd (a + 1) (Float.sqrt (get fx (b + 1)));
    set fd (a + 2) (Float.sqrt (get fx (b + 2)));
    set fd (a + 3) (Float.sqrt (get fx (b + 3)));
    pa := a + 4;
    pb := b + 4
  done;
  let a = !pa and b = !pb in
  for l = 0 to fin - a - 1 do set fd (a + l) (Float.sqrt (get fx (b + l))) done

let[@inline never] lane_abs fd d fx x width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x in
  while !pa < stop do
    let a = !pa and b = !pb in
    set fd a (Float.abs (get fx b));
    set fd (a + 1) (Float.abs (get fx (b + 1)));
    set fd (a + 2) (Float.abs (get fx (b + 2)));
    set fd (a + 3) (Float.abs (get fx (b + 3)));
    pa := a + 4;
    pb := b + 4
  done;
  let a = !pa and b = !pb in
  for l = 0 to fin - a - 1 do set fd (a + l) (Float.abs (get fx (b + l))) done

let[@inline never] lane_exp fd d fx x width =
  let n = width - 1 in
  for l = 0 to n do set fd (d + l) (Float.exp (get fx (x + l))) done

let[@inline never] lane_log fd d fx x width =
  let n = width - 1 in
  for l = 0 to n do set fd (d + l) (Float.log (get fx (x + l))) done

let[@inline never] lane_sin fd d fx x width =
  let n = width - 1 in
  for l = 0 to n do set fd (d + l) (Float.sin (get fx (x + l))) done

let[@inline never] lane_cos fd d fx x width =
  let n = width - 1 in
  for l = 0 to n do set fd (d + l) (Float.cos (get fx (x + l))) done

let[@inline never] lane_floor fd d fx x width =
  let n = width - 1 in
  for l = 0 to n do set fd (d + l) (Float.floor (get fx (x + l))) done

let[@inline never] lane_ceil fd d fx x width =
  let n = width - 1 in
  for l = 0 to n do set fd (d + l) (Float.ceil (get fx (x + l))) done

let[@inline never] lane_pow fd d fx x fy y width =
  let n = width - 1 in
  for l = 0 to n do set fd (d + l) (Float.pow (get fx (x + l)) (get fy (y + l))) done

let[@inline never] lane_min fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (fmin (get fx b) (get fy c));
    set fd (a + 1) (fmin (get fx (b + 1)) (get fy (c + 1)));
    set fd (a + 2) (fmin (get fx (b + 2)) (get fy (c + 2)));
    set fd (a + 3) (fmin (get fx (b + 3)) (get fy (c + 3)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (fmin (get fx (b + l)) (get fy (c + l))) done

let[@inline never] lane_max fd d fx x fy y width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc in
    set fd a (fmax (get fx b) (get fy c));
    set fd (a + 1) (fmax (get fx (b + 1)) (get fy (c + 1)));
    set fd (a + 2) (fmax (get fx (b + 2)) (get fy (c + 2)));
    set fd (a + 3) (fmax (get fx (b + 3)) (get fy (c + 3)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4
  done;
  let a = !pa and b = !pb and c = !pc in
  for l = 0 to fin - a - 1 do set fd (a + l) (fmax (get fx (b + l)) (get fy (c + l))) done

let[@inline never] lane_scale_sub fd d fx x fy y fz z width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y and pe = ref z in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc and e = !pe in
    let v = get fx b in
    set fd a (v *. (get fy c -. get fz e));
    let v = get fx (b + 1) in
    set fd (a + 1) (v *. (get fy (c + 1) -. get fz (e + 1)));
    let v = get fx (b + 2) in
    set fd (a + 2) (v *. (get fy (c + 2) -. get fz (e + 2)));
    let v = get fx (b + 3) in
    set fd (a + 3) (v *. (get fy (c + 3) -. get fz (e + 3)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4;
    pe := e + 4
  done;
  let a = !pa and b = !pb and c = !pc and e = !pe in
  for l = 0 to fin - a - 1 do
    let v = get fx (b + l) in
    set fd (a + l) (v *. (get fy (c + l) -. get fz (e + l)))
  done

let[@inline never] lane_scale_add fd d fx x fy y fz z width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y and pe = ref z in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc and e = !pe in
    let v = get fx b in
    set fd a (v *. (get fy c +. get fz e));
    let v = get fx (b + 1) in
    set fd (a + 1) (v *. (get fy (c + 1) +. get fz (e + 1)));
    let v = get fx (b + 2) in
    set fd (a + 2) (v *. (get fy (c + 2) +. get fz (e + 2)));
    let v = get fx (b + 3) in
    set fd (a + 3) (v *. (get fy (c + 3) +. get fz (e + 3)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4;
    pe := e + 4
  done;
  let a = !pa and b = !pb and c = !pc and e = !pe in
  for l = 0 to fin - a - 1 do
    let v = get fx (b + l) in
    set fd (a + l) (v *. (get fy (c + l) +. get fz (e + l)))
  done

let[@inline never] lane_add_add fd d fx x fy y fz z width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y and pe = ref z in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc and e = !pe in
    set fd a ((get fx b +. get fy c) +. get fz e);
    set fd (a + 1) ((get fx (b + 1) +. get fy (c + 1)) +. get fz (e + 1));
    set fd (a + 2) ((get fx (b + 2) +. get fy (c + 2)) +. get fz (e + 2));
    set fd (a + 3) ((get fx (b + 3) +. get fy (c + 3)) +. get fz (e + 3));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4;
    pe := e + 4
  done;
  let a = !pa and b = !pb and c = !pc and e = !pe in
  for l = 0 to fin - a - 1 do set fd (a + l) ((get fx (b + l) +. get fy (c + l)) +. get fz (e + l)) done

let[@inline never] lane_sub_add fd d fx x fy y fz z width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y and pe = ref z in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc and e = !pe in
    set fd a ((get fx b -. get fy c) +. get fz e);
    set fd (a + 1) ((get fx (b + 1) -. get fy (c + 1)) +. get fz (e + 1));
    set fd (a + 2) ((get fx (b + 2) -. get fy (c + 2)) +. get fz (e + 2));
    set fd (a + 3) ((get fx (b + 3) -. get fy (c + 3)) +. get fz (e + 3));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4;
    pe := e + 4
  done;
  let a = !pa and b = !pb and c = !pc and e = !pe in
  for l = 0 to fin - a - 1 do set fd (a + l) ((get fx (b + l) -. get fy (c + l)) +. get fz (e + l)) done

let[@inline never] lane_mul_add fd d fx x fy y fz z width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y and pe = ref z in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc and e = !pe in
    set fd a ((get fx b *. get fy c) +. get fz e);
    set fd (a + 1) ((get fx (b + 1) *. get fy (c + 1)) +. get fz (e + 1));
    set fd (a + 2) ((get fx (b + 2) *. get fy (c + 2)) +. get fz (e + 2));
    set fd (a + 3) ((get fx (b + 3) *. get fy (c + 3)) +. get fz (e + 3));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4;
    pe := e + 4
  done;
  let a = !pa and b = !pb and c = !pc and e = !pe in
  for l = 0 to fin - a - 1 do set fd (a + l) ((get fx (b + l) *. get fy (c + l)) +. get fz (e + l)) done

let[@inline never] lane_mul_sub fd d fx x fy y fz z width =
  let stop = d + (width land -4) and fin = d + width in
  let pa = ref d and pb = ref x and pc = ref y and pe = ref z in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc and e = !pe in
    set fd a ((get fx b *. get fy c) -. get fz e);
    set fd (a + 1) ((get fx (b + 1) *. get fy (c + 1)) -. get fz (e + 1));
    set fd (a + 2) ((get fx (b + 2) *. get fy (c + 2)) -. get fz (e + 2));
    set fd (a + 3) ((get fx (b + 3) *. get fy (c + 3)) -. get fz (e + 3));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4;
    pe := e + 4
  done;
  let a = !pa and b = !pb and c = !pc and e = !pe in
  for l = 0 to fin - a - 1 do set fd (a + l) ((get fx (b + l) *. get fy (c + l)) -. get fz (e + l)) done

let[@inline never] lane_select_gt_shared fd d fx x fy y z fw w width =
  let stop = d + (width land -4) and fin = d + width in
  let e = z - w in
  let pa = ref d and pb = ref x and pc = ref y and pf = ref w in
  while !pa < stop do
    let a = !pa and b = !pb and c = !pc and f = !pf in
    set fd a (get fw (f + (Bool.to_int (get fx b > get fy c) * e)));
    set fd (a + 1) (get fw (f + 1 + (Bool.to_int (get fx (b + 1) > get fy (c + 1)) * e)));
    set fd (a + 2) (get fw (f + 2 + (Bool.to_int (get fx (b + 2) > get fy (c + 2)) * e)));
    set fd (a + 3) (get fw (f + 3 + (Bool.to_int (get fx (b + 3) > get fy (c + 3)) * e)));
    pa := a + 4;
    pb := b + 4;
    pc := c + 4;
    pf := f + 4
  done;
  let a = !pa and b = !pb and c = !pc and f = !pf in
  for l = 0 to fin - a - 1 do
    set fd (a + l) (get fw (f + l + (Bool.to_int (get fx (b + l) > get fy (c + l)) * e)))
  done

let[@inline never] lane_select_gt fd d fx x fy y fz z fw w width =
  let n = width - 1 in
  for l = 0 to n do
    set fd (d + l) (if get fx (x + l) > get fy (y + l) then get fz (z + l) else get fw (w + l))
  done

(* One instruction: its operation's lane loop. *)
let run op ~fd ~d ~fx ~x ~fy ~y ~fz ~z ~fw ~w ~width =
  match op with
  | Neg -> lane_neg fd d fx x width
  | Not -> lane_not fd d fx x width
  | Add -> lane_add fd d fx x fy y width
  | Sub -> lane_sub fd d fx x fy y width
  | Mul -> lane_mul fd d fx x fy y width
  | Div -> lane_div fd d fx x fy y width
  | Lt -> lane_lt fd d fx x fy y width
  | Le -> lane_le fd d fx x fy y width
  | Gt -> lane_gt fd d fx x fy y width
  | Ge -> lane_ge fd d fx x fy y width
  | Eq -> lane_eq fd d fx x fy y width
  | Ne -> lane_ne fd d fx x fy y width
  | And -> lane_and fd d fx x fy y width
  | Or -> lane_or fd d fx x fy y width
  | Select when fy == fz -> lane_select_shared fd d fx x y fz z width
  | Select -> lane_select fd d fx x fy y fz z width
  | Sqrt -> lane_sqrt fd d fx x width
  | Abs -> lane_abs fd d fx x width
  | Exp -> lane_exp fd d fx x width
  | Log -> lane_log fd d fx x width
  | Sin -> lane_sin fd d fx x width
  | Cos -> lane_cos fd d fx x width
  | Floor -> lane_floor fd d fx x width
  | Ceil -> lane_ceil fd d fx x width
  | Pow -> lane_pow fd d fx x fy y width
  | Min -> lane_min fd d fx x fy y width
  | Max -> lane_max fd d fx x fy y width
  | Scale_sub -> lane_scale_sub fd d fx x fy y fz z width
  | Scale_add -> lane_scale_add fd d fx x fy y fz z width
  | Add_add -> lane_add_add fd d fx x fy y fz z width
  | Sub_add -> lane_sub_add fd d fx x fy y fz z width
  | Mul_add -> lane_mul_add fd d fx x fy y fz z width
  | Mul_sub -> lane_mul_sub fd d fx x fy y fz z width
  | Select_gt when fz == fw -> lane_select_gt_shared fd d fx x fy y z fw w width
  | Select_gt -> lane_select_gt fd d fx x fy y fz z fw w width

(* The list a dispatch of [lanes] cells from lane [col] of row [row] of
   its plane runs: the full list in the prologue rows, else the rolling
   list, or a list for the row's first lanes, its last lanes or both. *)
let[@inline] list_index p ~row ~col ~lanes =
  if p.rings = 0 || row < p.period - 1 then 4
  else Bool.to_int (col < p.first_col) + (2 * Bool.to_int (col + lanes > p.last_col))

(* Instruction [i] runs over the dispatch's lanes widened by its class's
   shift spread ([extra]); a slot's cells are relative to the dispatch,
   where the slot is bound, a ring's absolute (see [cell]). *)
let exec p ~idx ~lanes fr ~dst ~at =
  let stride = fr.stride in
  let rank = Array.length idx in
  let col = if rank > 0 then idx.(rank - 1) else 0 and row = if rank > 1 then idx.(rank - 2) else 0 in
  if lanes < 1 || lanes + p.pad > stride || Array.length fr.arrays <> p.n_slots
     || Array.length fr.cells <> (p.n_slots + ring_rows p) * stride
     || (p.rings > 0 && (col < 0 || row < 0 || col + lanes + p.pad > stride))
  then invalid_arg "Compile.exec: the frame does not hold [lanes] lanes";
  if at < 0 || at >= Array.length dst || lanes > Array.length dst then
    invalid_arg "Compile.exec: the destination does not hold [lanes] lanes";
  (* The result's instruction writes the caller's row itself unless the
     row wraps; any other result is copied there at the end. *)
  let direct = p.in_place && at + lanes <= Array.length dst in
  if direct then bind fr p.result dst at
  else if p.in_place then bind fr p.result fr.cells (p.result * stride);
  let args = p.args and m = p.period in
  let q = if p.rings > 0 then row mod m else 0 in
  let k = list_index p ~row ~col ~lanes in
  let list = p.lists.(k) and ends = k >= 1 && k <= 3 in
  let arrays = fr.arrays and bases = fr.bases in
  for j = 0 to Array.length list - 1 do
    let i = Array.unsafe_get list j in
    let a = per_instr * i in
    let op = Array.unsafe_get p.ops i and extra = Array.unsafe_get args (a + 15) in
    let width = lanes + extra in
    if Array.unsafe_get args (a + 18) = 0 then begin
      (* No ring: every reference is a slot, relative to the dispatch. *)
      let sd = Array.unsafe_get args a
      and sx = Array.unsafe_get args (a + 3)
      and sy = Array.unsafe_get args (a + 6)
      and sz = Array.unsafe_get args (a + 9)
      and sw = Array.unsafe_get args (a + 12) in
      run op ~fd:(Array.unsafe_get arrays sd) ~d:(Array.unsafe_get bases sd)
        ~fx:(Array.unsafe_get arrays sx) ~x:(Array.unsafe_get bases sx + Array.unsafe_get args (a + 4))
        ~fy:(Array.unsafe_get arrays sy) ~y:(Array.unsafe_get bases sy + Array.unsafe_get args (a + 7))
        ~fz:(Array.unsafe_get arrays sz) ~z:(Array.unsafe_get bases sz + Array.unsafe_get args (a + 10))
        ~fw:(Array.unsafe_get arrays sw) ~w:(Array.unsafe_get bases sw + Array.unsafe_get args (a + 13))
        ~width
    end
    else begin
      let fd = array fr args a and fx = array fr args (a + 3) and fy = array fr args (a + 6)
      and fz = array fr args (a + 9) and fw = array fr args (a + 12) in
      let d = cell fr args a ~col ~q ~m
      and x = cell fr args (a + 3) ~col ~q ~m
      and y = cell fr args (a + 6) ~col ~q ~m
      and z = cell fr args (a + 9) ~col ~q ~m
      and w = cell fr args (a + 12) ~col ~q ~m in
      if ends && Array.unsafe_get args (a + 18) = 2 then begin
        (* A variant at a row's ends computes only the lanes its top
           did not write: before the top's least lane, and after its
           greatest. *)
        let c1 = Int.min width (Array.unsafe_get args (a + 16) - col) in
        if c1 > 0 then run op ~fd ~d ~fx ~x ~fy ~y ~fz ~z ~fw ~w ~width:c1;
        let c0 = Int.max (Int.max c1 0) (p.cols - col + extra - Array.unsafe_get args (a + 17)) in
        if c0 < width then
          run op ~fd ~d:(d + c0) ~fx ~x:(x + c0) ~fy ~y:(y + c0) ~fz ~z:(z + c0) ~fw ~w:(w + c0)
            ~width:(width - c0)
      end
      else run op ~fd ~d ~fx ~x ~fy ~y ~fz ~z ~fw ~w ~width
    end
  done;
  if not direct then begin
    let r = Array.unsafe_get arrays p.result and s = Array.unsafe_get bases p.result + p.result_off in
    let n = Int.min lanes (Array.length dst - at) in
    Array.blit r s dst at n;
    if n < lanes then Array.blit r (s + n) dst 0 (lanes - n)
  end

let body ~access b =
  let p = lower ~lane:(fun _ -> Fixed) b in
  let reads = Array.map (fun (field, offsets) -> access ~field ~offsets) p.loads in
  let fr = frame p ~lanes:1 and idx = [| 0 |] and out = [| 0. |] in
  fun ctx ->
    for k = 0 to Array.length reads - 1 do
      fr.cells.(k * fr.stride) <- reads.(k) ctx
    done;
    exec p ~idx ~lanes:1 fr ~dst:out ~at:0;
    out.(0)

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

type taps = { prog : program; taps : tap array; mutable copied : int; mutable bound : int }

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
  { prog = p; taps; copied = 0; bound = 0 }

let load_runs t = (t.copied, t.bound)

(* The ring index of stream element [e], the first of [len] elements
   [e], [e + step], ... ([step] is 0 or 1). Every element read must be
   among the last [span]; element [e] then sits [newest - e] places
   behind [head]. *)
let[@inline] locate r e step len =
  assert (e >= 0 && e > r.newest - r.span && e + (step * (len - 1)) <= r.newest);
  let i = r.head - (r.newest - e) in
  if i < 0 then i + r.cap else i

(* Copy [len] stream elements from [e] into [fr] from [dst]: at most two
   blits, split where the run wraps the ring; a step-0 run stores one
   element (a loop: [Array.fill] would box it). *)
let[@inline] read_run r e step fr dst len =
  let i = locate r e step len in
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

let fill_slot ts t ~idx ~lanes fr slot oob =
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
  (* A run wholly in bounds along the innermost axis that does not wrap
     the ring is read where it lies; any other run is copied into the
     slot's cells. *)
  let e = !center + t.shift in
  let i = if t.step = 1 && lo = 0 && hi = width then locate t.src e 1 width else -1 in
  if i >= 0 && i + width <= t.src.cap then begin
    bind fr slot t.src.data i;
    ts.bound <- ts.bound + 1
  end
  else begin
    let dst = slot * fr.stride in
    bind fr slot fr.cells dst;
    ts.copied <- ts.copied + 1;
    if hi > lo then read_run t.src (e + (t.step * lo)) t.step fr.cells (dst + lo) (hi - lo);
    (* The other cells take the boundary value (a [Copy] tap has no extra
       cells: cell [l] is lane [l], which reads its own cell). *)
    for k = 0 to lo + width - hi - 1 do
      let l = if k < lo then k else hi + k - lo in
      match t.boundary with
      | Boundary.Constant c -> fr.cells.(dst + l) <- c
      | Boundary.Copy -> read_run t.src (!center + (t.step * l)) 0 fr.cells (dst + l) 1
    done
  end;
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

let fill ?oob ({ prog; taps; _ } as ts) ~idx ~lanes fr =
  if Array.length fr.arrays <> prog.n_slots then invalid_arg "Compile.fill: the frame is not the program's";
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
    if lanes + t.extra > fr.stride then invalid_arg "Compile.fill: a run is wider than the stride";
    if Option.is_some oob || reads.(slot) then fill_slot ts t ~idx ~lanes fr slot oob
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
