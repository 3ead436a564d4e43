module Compile = Sf_reference.Compile
module Interp = Sf_reference.Interp
open Sf_ir

(* Leaf values that stress IEEE corners: NaNs with distinct payloads and
   signs, signed zeros, infinities (x / 0.0 and 0.0 / 0.0 arise from
   them), and ordinary values on both sides of zero. *)
let adversarial_values =
  [|
    Int64.float_of_bits 0x7ff8000000000123L;
    Int64.float_of_bits 0xfff8000000000456L;
    Int64.float_of_bits 0x7ff0000000000789L;
    0.0; -0.0; Float.infinity; Float.neg_infinity; 1.0; -1.0; 0.5; -2.75; 3.0e300; 1.0e-310;
  |]

(* Free variables of generated expressions become let-bound loads of a
   field of their own name, so every variable is data too. *)
let bind_vars e =
  {
    Expr.lets =
      List.map (fun v -> (v, Expr.Access { field = v; offsets = [] })) [ "t0"; "t1"; "u" ];
    result = e;
  }

(* Every load its own slot: the frame's load slots are a flat prefix. *)
let fixed _ = Compile.Fixed

(* The position of a dispatch of a program without rings. *)
let origin = [| 0 |]

(* The value of load ([field], [offsets]) in lane [lane], from [seed]. *)
let leaf_value ~seed ~field ~offsets ~lane =
  let h = Hashtbl.hash (seed, field, offsets, lane) in
  if h mod 3 = 0 then float_of_int (h mod 97) /. 7. -. 5.
  else adversarial_values.(h mod Array.length adversarial_values)

(* A NaN whose payload names frame cell [cell]: no computed value, not
   even a NaN propagated from another cell, has these bits. *)
let sentinel cell = Int64.float_of_bits (Int64.logor 0x7ff8_5e00_0000_0000L (Int64.of_int cell))

(* Run [e] over [lanes] cells of a frame of slot stride [stride]
   (default [lanes]) whose cells past [lanes] hold sentinels, into a row
   from cell 3 of a destination whose other cells hold sentinels too.
   Every lane must equal the tree-walking evaluator bit for bit, and
   every sentinel must survive: [exec] writes lanes [0, lanes) of each
   slot and no other cell, and [lanes] cells of the destination. *)
let lanes_match_interp ?stride ~seed e lanes =
  let stride = Option.value stride ~default:lanes in
  let b = bind_vars e in
  let p = Compile.lower ~lane:fixed b in
  let fr = Compile.frame p ~lanes:stride in
  let cells = Compile.cells fr in
  let outside cell = cell mod stride >= lanes in
  Array.iteri (fun cell _ -> if outside cell then cells.(cell) <- sentinel cell) cells;
  Array.iteri
    (fun k (field, offsets) ->
      for lane = 0 to lanes - 1 do
        cells.((k * stride) + lane) <- leaf_value ~seed ~field ~offsets ~lane
      done)
    (Compile.loads p);
  let at = 3 in
  let dst = Array.init (lanes + 8) (fun c -> sentinel (-c)) in
  Compile.exec p ~idx:origin ~lanes fr ~dst ~at;
  List.for_all
    (fun lane ->
      let lookup ~field ~offsets = leaf_value ~seed ~field ~offsets ~lane in
      let expected =
        Interp.eval_expr ~lookup ~env:(fun v -> Some (lookup ~field:v ~offsets:[])) e
      in
      let got = dst.(at + lane) in
      Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)
      || QCheck.Test.fail_reportf "lanes=%d lane=%d: expected %h, got %h" lanes lane expected got)
    (List.init lanes Fun.id)
  && List.for_all
       (fun cell ->
         (not (outside cell))
         || Int64.equal (Int64.bits_of_float cells.(cell)) (Int64.bits_of_float (sentinel cell))
         || QCheck.Test.fail_reportf "lanes=%d stride=%d: cell %d (slot %d, lane %d) written"
              lanes stride cell (cell / stride) (cell mod stride))
       (List.init (Array.length cells) Fun.id)
  && List.for_all
       (fun c ->
         (c >= at && c < at + lanes)
         || Int64.equal (Int64.bits_of_float dst.(c)) (Int64.bits_of_float (sentinel (-c)))
         || QCheck.Test.fail_reportf "lanes=%d: destination cell %d written" lanes c)
       (List.init (Array.length dst) Fun.id)

(* Every remainder mod 4 over one and two four-lane blocks (1-9), either
   side of a 64-word chunk at W=1 (63-65), and a chunk at W=4 (256). *)
let widths = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 63; 64; 65; 256 ]

(* Replace about half of the constants with adversarial values, so that
   NaN, signed zeros and infinities reach comparisons, [&&], [||] and
   select conditions as constants as well as loads. *)
let rec adversarial_consts ~seed e =
  let sub = adversarial_consts ~seed in
  match e with
  | Expr.Const c ->
      let h = Hashtbl.hash (seed, Int64.bits_of_float c) in
      if h mod 2 = 0 then Expr.Const adversarial_values.(h mod Array.length adversarial_values)
      else e
  | Expr.Access _ | Expr.Var _ -> e
  | Expr.Unary (op, x) -> Expr.Unary (op, sub x)
  | Expr.Binary (op, x, y) -> Expr.Binary (op, sub x, sub y)
  | Expr.Select { cond; if_true; if_false } ->
      Expr.Select { cond = sub cond; if_true = sub if_true; if_false = sub if_false }
  | Expr.Call (f, args) -> Expr.Call (f, List.map sub args)

let arbitrary_expr =
  QCheck.pair (QCheck.make ~print:Expr.to_string Test_expr.expr_gen) QCheck.small_nat

(* The flat evaluator must agree bit for bit with the tree-walking
   evaluator, lane by lane, at every lane count. *)
let prop_lanes_bit_exact =
  QCheck.Test.make ~count:500 ~name:"compiled expressions equal the evaluator" arbitrary_expr
    (fun (e, seed) ->
      let e = adversarial_consts ~seed e in
      List.for_all (lanes_match_interp ~seed e) widths)

(* A stencil unit's frame holds a chunk of words, 64 * W lanes, and a
   dispatch runs as many as are ready: the stride exceeds [lanes], and
   the cells between must come through untouched, so a four-lane block
   or the tail loop that runs past [lanes] shows. *)
let prop_wide_frame_sentinels =
  QCheck.Test.make ~count:200 ~name:"exec writes only lanes [0, lanes) of a wider frame"
    arbitrary_expr (fun (e, seed) ->
      let e = adversarial_consts ~seed e in
      List.for_all
        (fun lanes -> lanes_match_interp ~stride:(if lanes < 256 then 256 else 261) ~seed e lanes)
        widths)

(* Loads and constants keep their slots (a load slot may be bound to
   its source), and a computed result takes the next one before any
   instruction runs: the five loads and one constant below take six
   slots, the result a seventh. The other computed values take three
   more, the last of them the slot its computed operand frees at the
   same instruction: the lane loops must read each lane before
   overwriting it. The result keeps its slot: a binding nothing reads,
   computed after it, must take another. *)
let test_slot_reuse () =
  let access field = Expr.Access { field; offsets = [] } in
  let e =
    Expr.Select
      {
        cond = Expr.Binary (Expr.Lt, access "t0", access "t1");
        if_true = Expr.Binary (Expr.Mul, access "u", Expr.Const 2.);
        if_false = Expr.Unary (Expr.Neg, Expr.Binary (Expr.Or, access "a", access "b"));
      }
  in
  let p = Compile.lower ~lane:fixed { Expr.lets = []; result = e } in
  Alcotest.(check int) "loads, constants, the result and three computed slots" 10
    (Array.length (Compile.cells (Compile.frame p ~lanes:1)));
  List.iter
    (fun seed ->
      List.iter
        (fun lanes ->
          if not (lanes_match_interp ~seed e lanes) then Alcotest.failf "seed %d" seed)
        [ 1; 3; 4; 5; 7; 8; 67 ])
    (List.init 40 Fun.id);
  let p =
    Compile.lower ~lane:fixed
      { Expr.lets = [ ("unread", Expr.Unary (Expr.Neg, access "b")) ];
        result = Expr.Unary (Expr.Neg, access "a") }
  in
  let fr = Compile.frame p ~lanes:1 and dst = [| 0. |] in
  let cells = Compile.cells fr in
  Alcotest.(check int) "two loads, two computed slots" 4 (Array.length cells);
  Array.iteri (fun k (field, _) -> cells.(k) <- (if field = "a" then 3. else 5.)) (Compile.loads p);
  Compile.exec p ~idx:origin ~lanes:1 fr ~dst ~at:0;
  Alcotest.(check (float 0.)) "result kept" (-3.) dst.(0)

(* Liveness keeps frames small: fused, optimized hdiff at W=4 had 138
   slots in its u_out frame with one slot per node. Each of its 31 loads
   keeps its own slot, which [fill] may bind to the load's source; the
   constants and computed values share 12 more (38 slots in all when
   computed values could take a dead load's slot). *)
let test_hdiff_frame_slots () =
  let p = Sf_kernels.Hdiff.program ~shape:[ 8; 64; 64 ] ~vector_width:4 () in
  let p = Sf_sdfg.Opt.optimize (fst (Sf_sdfg.Fusion.fuse_all p)) in
  let s = List.find (fun (s : Stencil.t) -> s.Stencil.name = "u_out") p.Program.stencils in
  let prog = Compile.lower ~lane:fixed s.Stencil.body in
  let slots = Array.length (Compile.cells (Compile.frame prog ~lanes:1)) in
  let loads = Array.length (Compile.loads prog) in
  if slots > loads + 12 then Alcotest.failf "u_out frame has %d slots past its %d loads" (slots - loads) loads

let test_body_lets_evaluate_once () =
  (* Each let is computed once per invocation; the access counter shows
     exactly one evaluation of the shared access per call. *)
  let counter = ref 0 in
  let access ~field:_ ~offsets:_ =
    fun () ->
      incr counter;
      2.
  in
  let body =
    {
      Expr.lets = [ ("t", Expr.Access { field = "a"; offsets = [ 0 ] }) ];
      result = Expr.Binary (Expr.Mul, Expr.Var "t", Expr.Var "t");
    }
  in
  let f = Compile.body ~access body in
  Alcotest.(check (float 0.)) "t*t" 4. (f ());
  Alcotest.(check int) "access evaluated once" 1 !counter;
  Alcotest.(check (float 0.)) "second call" 4. (f ());
  Alcotest.(check int) "once per call" 2 !counter

let test_body_adapter_equals_eval () =
  (* The one-lane adapter over caller access functions, on a body whose
     free variables are bound by lets. *)
  let e =
    Expr.Select
      {
        cond = Expr.Binary (Expr.Lt, Expr.Var "t0", Expr.Access { field = "a"; offsets = [ 1 ] });
        if_true = Expr.Binary (Expr.Div, Expr.Var "u", Expr.Const 0.);
        if_false = Expr.Call (Expr.Min, [ Expr.Var "t1"; Expr.Const (-0.0) ]);
      }
  in
  List.iter
    (fun seed ->
      let lookup ~field ~offsets = leaf_value ~seed ~field ~offsets ~lane:0 in
      let f = Compile.body ~access:(fun ~field ~offsets () -> lookup ~field ~offsets) (bind_vars e) in
      let expected = Interp.eval_expr ~lookup ~env:(fun v -> Some (lookup ~field:v ~offsets:[])) e in
      Alcotest.(check int64)
        (Printf.sprintf "seed %d" seed) (Int64.bits_of_float expected) (Int64.bits_of_float (f ())))
    (List.init 50 Fun.id)

let test_unbound_variable_rejected () =
  match
    Compile.body
      ~access:(fun ~field:_ ~offsets:_ () -> 0.)
      { Expr.lets = []; result = Expr.Var "ghost" }
  with
  | exception Invalid_argument _ -> ()
  | (_ : unit -> float) -> Alcotest.fail "unbound variable must be rejected"

let test_let_ordering () =
  (* A binding may reference earlier bindings but not later ones. *)
  let access ~field:_ ~offsets:_ = fun () -> 3. in
  let ok =
    {
      Expr.lets =
        [
          ("a", Expr.Access { field = "x"; offsets = [] });
          ("b", Expr.Binary (Expr.Add, Expr.Var "a", Expr.Const 1.));
        ];
      result = Expr.Var "b";
    }
  in
  Alcotest.(check (float 0.)) "forward refs work" 4. (Compile.body ~access ok ());
  let backwards =
    {
      Expr.lets = [ ("a", Expr.Var "b"); ("b", Expr.Const 1.) ];
      result = Expr.Var "a";
    }
  in
  match Compile.body ~access backwards with
  | exception Invalid_argument _ -> ()
  | (_ : unit -> float) -> Alcotest.fail "backward reference must be rejected"

(* A view reads its last [span] elements and no further back, even where
   its array still holds older ones: a stencil unit's view of its input
   channel reads the channel's history reserve, and the slots before it
   belong to the channel's producer. A fill whose oldest read is exactly
   [span] elements back passes; a view one word short fails. *)
let test_view_reads_its_span () =
  let cols = 8 and lanes = 4 in
  let shape = [| 4; cols |] in
  let access field offsets = Expr.Access { field; offsets } in
  let e = Expr.Binary (Expr.Add, access "a" [ -1; 0 ], access "a" [ 1; 0 ]) in
  let p = Compile.lower ~lane:(fun _ -> Compile.Shifts) { Expr.lets = []; result = e } in
  let data = Array.init 64 float_of_int in
  let fill span =
    let v = Compile.view data ~span in
    (* Lanes [0, lanes) of row 1 read rows 0 and 2, from element 0 up to
       element [newest]. *)
    v.newest <- (2 * cols) + lanes - 1;
    v.head <- v.newest;
    let taps = Compile.taps p ~shape (fun _ -> (v, [| 0; 1 |], Boundary.Constant 0.)) in
    let fr = Compile.frame p ~lanes and dst = Array.make lanes 0. in
    Compile.fill taps ~idx:[| 1; 0 |] ~lanes fr;
    Compile.exec p ~idx:[| 1; 0 |] ~lanes fr ~dst ~at:0;
    dst
  in
  let span = (2 * cols) + lanes in
  Alcotest.(check (array (float 0.))) "exact span"
    (Array.init lanes (fun l -> data.(l) +. data.((2 * cols) + l)))
    (fill span);
  match fill (span - 1) with
  | exception Assert_failure _ -> ()
  | _ -> Alcotest.fail "a read before the view's span must fail"

(* A stencil unit reads its input channel's ring, which wraps. [fill]
   reads the lanes of an in-bounds run with at most two blits split at
   the wrap point, and a tap that does not span the innermost axis
   repeats one element; every lane must still equal the tree-walking
   evaluator, bit for bit. *)
let test_fill_across_ring_wrap () =
  let rows = 6 and cols = 16 in
  let shape = [| rows; cols |] in
  let value e = leaf_value ~seed:e ~field:"a" ~offsets:[] ~lane:0 in
  let row_value r = float_of_int (r + 1) /. 3. in
  let access field offsets = Expr.Access { field; offsets } in
  let e =
    Expr.Binary
      ( Expr.Add,
        Expr.Binary (Expr.Mul, access "a" [ 0; -1 ], access "row" [ 1 ]),
        Expr.Binary (Expr.Sub, access "a" [ 1; 2 ], access "a" [ -1; 0 ]) )
  in
  let lane field = if field = "a" then Compile.Shifts else Compile.Uniform in
  let p = Compile.lower ~lane { Expr.lets = []; result = e } in
  let max_lanes = 8 in
  (* Room for rows r - 1 .. r + 1 plus the run, and not a multiple of the
     row length, so runs start at varying ring positions. *)
  let cap = (2 * cols) + max_lanes + 5 in
  let win = Compile.view (Array.make cap 0.) ~span:cap in
  let taps =
    Compile.taps p ~shape (fun field ->
        if field = "a" then (win, [| 0; 1 |], Boundary.Constant 0.)
        else (Compile.resident (Array.init rows row_value), [| 0 |], Boundary.Constant 0.))
  in
  let fr = Compile.frame p ~lanes:max_lanes and oob = Array.make max_lanes false in
  let dst = Array.make max_lanes 0. in
  let straddles = ref 0 in
  for r = 1 to rows - 2 do
    for c = 1 to cols - max_lanes - 2 do
      for lanes = 1 to max_lanes do
        (* The window holds the stream up to the last element read. *)
        let newest = ((r + 1) * cols) + c + lanes + 1 in
        for el = newest - cap + 1 to newest do
          if el >= 0 then win.data.(el mod cap) <- value el
        done;
        win.newest <- newest;
        win.head <- newest mod cap;
        List.iter
          (fun (dr, dc) ->
            let first = ((r + dr) * cols) + c + dc in
            if (first mod cap) + lanes > cap then incr straddles)
          [ (0, -1); (1, 2); (-1, 0) ];
        Compile.fill taps ~idx:[| r; c |] ~lanes fr ~oob;
        Compile.exec p ~idx:origin ~lanes fr ~dst ~at:0;
        for l = 0 to lanes - 1 do
          let lookup ~field ~offsets =
            match (field, offsets) with
            | "a", [ dr; dc ] -> value (((r + dr) * cols) + c + l + dc)
            | _, [ dr ] -> row_value (r + dr)
            | _ -> Alcotest.fail "unexpected access"
          in
          let expected = Interp.eval_expr ~lookup ~env:(fun _ -> None) e in
          let got = dst.(l) in
          Alcotest.(check int64)
            (Printf.sprintf "r=%d c=%d lanes=%d lane %d" r c lanes l)
            (Int64.bits_of_float expected) (Int64.bits_of_float got)
        done
      done
    done
  done;
  if !straddles = 0 then Alcotest.fail "no run straddled the ring's wrap point"

(* Boxing a float anywhere in the lane loops would allocate per
   instruction; every unit of fused hdiff runs allocation-free, in whole
   four-lane blocks (4 lanes) and with a tail (6), on the full list (in
   the first row) and on the rolling lists (in a row past the prologue:
   mid-row, at its start, and over the whole row). Between them the four
   units run every fused form and read and write their rings. *)
let test_exec_allocation_free () =
  let p = Sf_kernels.Hdiff.program ~shape:[ 4; 16; 16 ] ~vector_width:4 () in
  let p = Sf_sdfg.Opt.optimize (fst (Sf_sdfg.Fusion.fuse_all p)) in
  List.iter
    (fun ((s : Stencil.t), prog) ->
      if Compile.rings prog = 0 then Alcotest.failf "%s: no ring" s.Stencil.name;
      List.iter
        (fun (lanes, idx) ->
          let fr = Compile.frame prog ~lanes and dst = Array.make lanes 0. in
          for k = 0 to (Array.length (Compile.loads prog) * Compile.stride prog ~lanes) - 1 do
            (Compile.cells fr).(k) <- 0.25 +. (float_of_int k /. 7.)
          done;
          Compile.exec prog ~idx ~lanes fr ~dst ~at:0;
          let calls = 10_000 in
          let before = Gc.minor_words () in
          for _ = 1 to calls do
            Compile.exec prog ~idx ~lanes fr ~dst ~at:0
          done;
          let words = (Gc.minor_words () -. before) /. float_of_int calls in
          if words >= 1. then
            Alcotest.failf "%s: exec allocates %.2f minor words per call at %d lanes" s.Stencil.name
              words lanes)
        [
          (4, [| 0; 0; 4 |]); (6, [| 0; 0; 4 |]); (4, [| 1; 12; 4 |]); (6, [| 2; 12; 4 |]);
          (4, [| 1; 12; 0 |]); (16, [| 2; 12; 0 |]);
        ])
    (Interp.plan (Program.check_exn p)).Interp.stages

(* Each fused form, with NaNs of either sign, signed zeros and
   infinities in every operand position, equals the tree-walking
   evaluator bit for bit. x86 returns the destination's NaN when both
   operands of an arithmetic instruction are NaNs, and the compiler may
   make a loaded first operand of a commutative operation the memory
   operand, so [x * (y - z)] computed with [x] loaded last returns the
   NaN of [y - z] where the evaluator returns [x]'s. Every combination
   runs in one dispatch (four-lane blocks) and in one-lane dispatches
   (the tail loop). *)
let test_fused_forms_ieee_corners () =
  let corners = [| Float.nan; Float.neg Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity |] in
  let v name = Expr.Access { field = name; offsets = [] } in
  let x = v "x" and y = v "y" and z = v "z" and w = v "w" in
  let bin op a b = Expr.Binary (op, a, b) in
  List.iter
    (fun (name, e, operands) ->
      let p = Compile.lower ~lane:fixed { Expr.lets = []; result = e } in
      Alcotest.(check int) (name ^ ": one instruction") 1 (Compile.instructions p);
      (* Every assignment of corners to the operands, one per lane. *)
      let rec assignments = function
        | [] -> [ [] ]
        | f :: rest ->
            List.concat_map
              (fun tail -> List.map (fun c -> (f, c) :: tail) (Array.to_list corners))
              (assignments rest)
      in
      let cases = Array.of_list (assignments operands) in
      let run lanes first =
        let fr = Compile.frame p ~lanes and dst = Array.make lanes 0. in
        let stride = Compile.stride p ~lanes in
        Array.iteri
          (fun k (field, _) ->
            for l = 0 to lanes - 1 do
              (Compile.cells fr).((k * stride) + l) <- List.assoc field cases.(first + l)
            done)
          (Compile.loads p);
        Compile.exec p ~idx:origin ~lanes fr ~dst ~at:0;
        for l = 0 to lanes - 1 do
          let case = cases.(first + l) in
          let expected =
            Interp.eval_expr ~lookup:(fun ~field ~offsets:_ -> List.assoc field case) ~env:(fun _ -> None) e
          in
          Alcotest.(check int64)
            (Printf.sprintf "%s with %s" name
               (String.concat ", " (List.map (fun (f, c) -> Printf.sprintf "%s = %h" f c) case)))
            (Int64.bits_of_float expected)
            (Int64.bits_of_float dst.(l))
        done
      in
      run (Array.length cases) 0;
      Array.iteri (fun first _ -> run 1 first) cases)
    [
      ("x * (y - z)", bin Expr.Mul x (bin Expr.Sub y z), [ "x"; "y"; "z" ]);
      ("x * (y + z)", bin Expr.Mul x (bin Expr.Add y z), [ "x"; "y"; "z" ]);
      ("(x + y) + z", bin Expr.Add (bin Expr.Add x y) z, [ "x"; "y"; "z" ]);
      ("(x - y) + z", bin Expr.Add (bin Expr.Sub x y) z, [ "x"; "y"; "z" ]);
      ("(x * y) + z", bin Expr.Add (bin Expr.Mul x y) z, [ "x"; "y"; "z" ]);
      ("(x * y) - z", bin Expr.Sub (bin Expr.Mul x y) z, [ "x"; "y"; "z" ]);
      ( "select (x > y, z, w)",
        Expr.Select { cond = bin Expr.Gt x y; if_true = z; if_false = w },
        [ "x"; "y"; "z"; "w" ] );
    ]

(* Shift-shared lowering ----------------------------------------------------- *)

(* One cell of a body, the way the spatial pipeline computes it: the
   lets in order (each one evaluated, read or not), then the result;
   [lookup] records whether any load was out of bounds. *)
let eval_cell ~lookup (b : Expr.body) =
  let env = Hashtbl.create 8 in
  List.iter
    (fun (n, e) -> Hashtbl.replace env n (Interp.eval_expr ~lookup ~env:(Hashtbl.find_opt env) e))
    b.Expr.lets;
  Interp.eval_expr ~lookup ~env:(Hashtbl.find_opt env) b.Expr.result

(* [e] with the offset along program axis [axis] of every access to a
   field that spans it moved by [d]; [axes f] is the axes [f] spans. *)
let shift_axis ~axes ~axis d e =
  Expr.map_accesses
    (fun ~field ~offsets ->
      let offsets =
        match List.find_index (Int.equal axis) (axes field) with
        | Some i -> List.mapi (fun j o -> if j = i then o + d else o) offsets
        | None -> offsets
      in
      Expr.Access { field; offsets })
    e

(* A generated program whose innermost extent is 68, so that a 64-lane
   dispatch can start mid-row and W = 4 divides it, and whose row axis
   (the second-innermost) has at least 8 cells, so that sweeps pass the
   prologue rows. Each body also reads itself one lane to the right, and
   one row down and -1, 0 or 1 lanes across by stencil (so most of its
   nodes share a class with a shifted twin, and row-shift classes have
   rings whose rolling lanes stop short of either row end), and binds a
   let it never reads: its first load, three lanes further right, which
   can widen a run past every load the result reads. Every fourth body
   is that first load alone, whose slot is the result's, and binds its
   ratio to its right neighbour and that ratio's twin one row down in a
   let it never reads. *)
let widened ~w (p : Program.t) =
  let rank = Program.rank p in
  let shape =
    List.mapi (fun d e -> if d = rank - 1 then 68 else if d = rank - 2 then Int.max e 8 else e) p.Program.shape
  in
  let axes f = Program.field_axes p f in
  let stencils =
    List.mapi
      (fun i (s : Stencil.t) ->
        let e = s.Stencil.body.Expr.result in
        let unused =
          match Expr.accesses e with
          | (field, offsets) :: _ ->
              [ ("unused", shift_axis ~axes ~axis:(rank - 1) 3 (Expr.Access { field; offsets })) ]
          | [] -> []
        in
        let twins =
          Expr.Binary (Expr.Add, e, shift_axis ~axes ~axis:(rank - 1) 1 e)
        in
        let twins =
          if rank < 2 then twins
          else
            Expr.Binary
              ( Expr.Add,
                twins,
                shift_axis ~axes ~axis:(rank - 1) ((i mod 3) - 1) (shift_axis ~axes ~axis:(rank - 2) 1 e) )
        in
        match (i mod 4, Expr.accesses e) with
        | 3, (field, offsets) :: _ ->
            let load = Expr.Access { field; offsets } in
            let ratio = Expr.Binary (Expr.Div, load, shift_axis ~axes ~axis:(rank - 1) 1 load) in
            let twins =
              if rank < 2 then ratio
              else Expr.Binary (Expr.Add, ratio, shift_axis ~axes ~axis:(rank - 2) 1 ratio)
            in
            {
              s with
              Stencil.body = { Expr.lets = unused @ [ ("twins", twins) ]; result = load };
              boundary = List.filter (fun (f, _) -> String.equal f field) s.Stencil.boundary;
            }
        | _ -> { s with Stencil.body = { Expr.lets = unused; result = twins } })
      p.Program.stencils
  in
  (* Every stencil an output: one that now reads a load alone may leave
     another unread. *)
  let outputs = List.map (fun (s : Stencil.t) -> s.Stencil.name) stencils in
  { p with Program.shape; stencils; outputs; vector_width = w }

(* The lowering the stencil units and the oracle share (Interp.plan),
   run by [fill] and [exec] over consecutive cells of a row, must equal
   the tree-walking evaluator lane by lane: the value bit for bit, and
   the validity flag as the OR over every load of the body, unread lets
   included. Constant and Copy boundaries mix, lower-rank inputs
   broadcast or are scalars, shrink stencils flag, and half the programs
   are fused (Fusion.fuse_all), so that inlined producers are read at
   several rows; W is 1, 2 or 4.

   Single dispatches of 1, 3, 4 and 64 lanes start at the row start,
   mid-row, and end at the row end, in the first row of a random plane
   on a fresh frame, where the full list runs. Each is filled and run
   once without flags (as for a stencil that does not shrink), which
   fills only the slots the dispatch reads, and once with them.

   Then two in-order sweeps over every cell, each on one frame, whose
   dispatches past the prologue rows run the rolling lists: whole rows,
   as the reference interpreter runs them, and random row segments of
   one word up to 64 lanes, as the stencil units run them, so that a
   segment may reach either end of a row, both or neither. Each
   dispatch is filled with flags or without, at random. *)
let prop_shared_lowering_bit_exact =
  QCheck.Test.make ~count:150 ~name:"shift-shared fill + exec equal the evaluator, values and flags"
    QCheck.(
      pair Program_gen.arbitrary_adversarial_program
        (triple small_nat bool (oneofl ~print:string_of_int [ 1; 2; 4 ])))
    (fun (p, (seed, fuse, w)) ->
      let p = widened ~w p in
      let p = if fuse then fst (Sf_sdfg.Fusion.fuse_all p) else p in
      let plan = Interp.plan (Program.check_exn p) in
      let checked = plan.Interp.checked in
      let shape = Array.of_list p.Program.shape in
      let rank = Array.length shape in
      let cols = shape.(rank - 1) in
      let cells = Array.fold_left ( * ) 1 shape in
      let state = Random.State.make [| seed |] in
      let value () =
        if Random.State.int state 4 = 0 then
          adversarial_values.(Random.State.int state (Array.length adversarial_values))
        else Random.State.float state 2. -. 1.
      in
      let axes f = Array.of_list (Program.Checked.axes checked f) in
      let data = Hashtbl.create 8 in
      let tensor f =
        match Hashtbl.find_opt data f with
        | Some t -> t
        | None ->
            let n = Array.fold_left (fun n a -> n * shape.(a)) 1 (axes f) in
            let t = Array.init n (fun _ -> value ()) in
            Hashtbl.replace data f t;
            t
      in
      (* The element of [f] at program multi-index [idx] plus [offsets]
         (one per axis of [f]), or [None] out of bounds. *)
      let element f idx offsets =
        let ax = axes f in
        let flat = ref 0 and ok = ref true in
        Array.iteri
          (fun d a ->
            let i = idx.(a) + offsets.(d) in
            if i < 0 || i >= shape.(a) then ok := false;
            flat := (!flat * shape.(a)) + i)
          ax;
        if !ok then Some (tensor f).(!flat) else None
      in
      List.for_all
        (fun ((s : Stencil.t), prog) ->
          let taps =
            Compile.taps prog ~shape (fun f ->
                (Compile.resident (tensor f), axes f, Stencil.boundary_for s f))
          in
          (* The evaluator's value and out-of-bounds flag at every cell. *)
          let expected =
            Array.init cells (fun c ->
                let cell = Array.make rank 0 and r = ref c in
                for d = rank - 1 downto 0 do
                  cell.(d) <- !r mod shape.(d);
                  r := !r / shape.(d)
                done;
                let out = ref false in
                let lookup ~field ~offsets =
                  match element field cell (Array.of_list offsets) with
                  | Some v -> v
                  | None -> (
                      out := true;
                      match Stencil.boundary_for s field with
                      | Boundary.Constant c -> c
                      | Boundary.Copy ->
                          Option.get (element field cell (Array.make (Array.length (axes field)) 0)))
                in
                let v = eval_cell ~lookup s.Stencil.body in
                (v, !out))
          in
          let oob = Array.make cols false and dst = Array.make cols 0. in
          (* Dispatch [lanes] cells from [idx] on [fr] and compare them. *)
          (* Dispatch [lanes] cells from [idx] on [fr] and compare them:
             with flags, or without (where fewer slots are filled) and
             then the values alone. *)
          let check ?(flags = true) how fr idx lanes =
            if flags then Compile.fill taps ~idx ~lanes fr ~oob else Compile.fill taps ~idx ~lanes fr;
            Compile.exec prog ~idx ~lanes fr ~dst ~at:0;
            let first = Array.fold_left (fun c (i, e) -> (c * e) + i) 0 (Array.map2 (fun i e -> (i, e)) idx shape) in
            let at () = String.concat "," (Array.to_list (Array.map string_of_int idx)) in
            List.for_all
              (fun l ->
                let want, out = expected.(first + l) in
                let got = dst.(l) in
                (Int64.equal (Int64.bits_of_float want) (Int64.bits_of_float got)
                || QCheck.Test.fail_reportf "%s, %s, %d lanes at [%s] (flags %b), lane %d: expected %h, got %h"
                     s.Stencil.name how lanes (at ()) flags l want got)
                && ((not flags) || Bool.equal out oob.(l)
                   || QCheck.Test.fail_reportf "%s, %s, %d lanes at [%s], lane %d: oob %b, flagged %b"
                        s.Stencil.name how lanes (at ()) l out oob.(l)))
              (List.init lanes Fun.id)
          in
          let singles =
            let fr = Compile.frame prog ~lanes:cols in
            let idx = Array.map (fun e -> Random.State.int state e) shape in
            if rank > 1 then idx.(rank - 2) <- 0;
            List.for_all
              (fun (lanes, start) ->
                idx.(rank - 1) <- start;
                check ~flags:false "single" fr idx lanes && check "single" fr idx lanes)
              (List.concat_map
                 (fun lanes ->
                   [ (lanes, 0); (lanes, 1 + Random.State.int state (cols - lanes)); (lanes, cols - lanes) ])
                 [ 1; 3; 4; 64 ])
          in
          (* An in-order sweep whose row segments [segment col] picks. *)
          let sweep how segment =
            let fr = Compile.frame prog ~lanes:cols and idx = Array.make rank 0 and ok = ref true in
            for _ = 1 to cells / cols do
              while !ok && idx.(rank - 1) < cols do
                let lanes = segment idx.(rank - 1) in
                ok := check ~flags:(Random.State.bool state) how fr idx lanes;
                idx.(rank - 1) <- idx.(rank - 1) + lanes
              done;
              idx.(rank - 1) <- 0;
              if rank > 1 then Compile.advance ~shape idx (rank - 2) 1
            done;
            !ok
          in
          singles
          && sweep "rows" (fun col -> cols - col)
          && sweep "segments" (fun col ->
                 Int.min (cols - col) (w * if Random.State.bool state then 1 else 1 + Random.State.int state (64 / w))))
        plan.Interp.stages)

(* Instructions and load runs per cell of the shared lowering: counts
   host noise cannot move. Each stage's count is the full list's (the
   prologue rows of a plane and the ends of each row) and the rolling
   list's (every other dispatch). Without sharing (every node its own
   class, the lowering before lane-shift classes) fused jacobi2d_8stage
   ran 816 instructions and 81 load runs per cell, and fused, optimized
   hdiff at W = 4 ran 103 + 103 + 78 + 78 = 362 instructions and 31 + 31
   + 21 + 21 = 104 load runs over its four units. With lane-shift
   classes and no fused forms they ran 256 and 81 + 81 + 56 + 56 = 274
   instructions, on the same load runs as now. Row-shift classes leave
   the full lists as they were and run 16 and 36 + 36 + 21 + 21 = 114
   instructions per cell on rolling dispatches: 128 and 174 before. *)
let test_lowering_pins () =
  let counts p =
    List.map
      (fun ((s : Stencil.t), prog) ->
        ( s.Stencil.name,
          (Compile.instructions prog, Compile.rolling_instructions prog),
          Array.length (Compile.loads prog) ))
      (Interp.plan (Program.check_exn p)).Interp.stages
  in
  let triple = Alcotest.(list (triple string (pair int int) int)) in
  let jacobi = Test_sim_parity.example "jacobi2d_8stage.json" in
  Alcotest.check triple "fused jacobi2d_8stage" [ ("f8", (128, 16), 17) ]
    (counts (fst (Sf_sdfg.Fusion.fuse_all jacobi)));
  let hdiff = Sf_kernels.Hdiff.program ~shape:[ 8; 64; 64 ] ~vector_width:4 () in
  Alcotest.check triple "fused, optimized hdiff at W=4"
    [ ("u_out", (51, 36), 21); ("v_out", (51, 36), 21); ("w_out", (36, 21), 13); ("pp_out", (36, 21), 13) ]
    (counts (Sf_sdfg.Opt.optimize (fst (Sf_sdfg.Fusion.fuse_all hdiff))));
  (* No class of an unfused body is read at two rows: chain-sim's Jacobi
     stages and every shipped example lower to programs without rings. *)
  let ringless name p =
    List.iter
      (fun ((s : Stencil.t), prog) ->
        Alcotest.(check int) (Printf.sprintf "%s: %s has no ring" name s.Stencil.name) 0 (Compile.rings prog))
      (Interp.plan (Program.check_exn p)).Interp.stages
  in
  ringless "chain-sim" (Sf_kernels.Iterative.chain ~shape:[ 128; 128 ] Sf_kernels.Iterative.Jacobi2d ~length:4);
  (* Stages share a lowering when their bodies differ only in the
     fields they read: chain-sim's 64 Jacobi stages lower one body, and
     of fused hdiff's four units, w_out and pp_out run one body over w
     and pp (u_out and v_out each read both u and v, in other roles). *)
  let lowerings p = (Interp.plan (Program.check_exn p)).Interp.lowerings in
  Alcotest.(check int) "chain-sim: distinct lowerings" 1
    (lowerings Sf_kernels.Iterative.(chain ~shape:[ 128; 128 ] Jacobi2d ~length:64));
  Alcotest.(check int) "fused, optimized hdiff at W=4: distinct lowerings" 3
    (lowerings (Sf_sdfg.Opt.optimize (fst (Sf_sdfg.Fusion.fuse_all hdiff))));
  List.iter
    (fun f -> ringless f (Test_sim_parity.example f))
    [
      "acoustic_wave.json"; "diamond.json"; "hdiff_2dev.json"; "horizontal_diffusion_small.json";
      "jacobi2d_8stage.json"; "laplace2d.json"; "shallow_water.json"; "smoothing3d.json";
    ]

(* The lowering key (Interp.plan). A shared program is only sound if
   lowering the stage's own body, as the plan did before stages shared,
   gives the same instructions, rolling instructions, rings and load
   runs; and the outputs of [Interp.run], which runs the shared
   programs, equal the per-cell oracle's bit for bit, masks included. *)
let shares_soundly ~at_most p =
  let plan = Interp.plan (Program.check_exn p) in
  let checked = plan.Interp.checked in
  let rank = Program.rank p in
  let fresh (s : Stencil.t) =
    let along axis field =
      if not (List.mem axis (Program.Checked.axes checked field)) then Compile.Uniform
      else
        match Stencil.boundary_for s field with
        | Boundary.Constant _ -> Compile.Shifts
        | Boundary.Copy -> Compile.Fixed
    in
    let rows =
      if rank < 2 then None else Some (List.nth p.Program.shape (rank - 1), along (rank - 2))
    in
    Compile.lower ?rows ~lane:(along (rank - 1)) s.Stencil.body
  in
  let form prog =
    ( (Compile.instructions prog, Compile.rolling_instructions prog, Compile.rings prog),
      Compile.loads prog )
  in
  List.iter
    (fun ((s : Stencil.t), prog) ->
      if form prog <> form (fresh s) then
        QCheck.Test.fail_reportf "%s: the shared program differs from its own lowering"
          s.Stencil.name)
    plan.Interp.stages;
  if plan.Interp.lowerings > at_most then
    QCheck.Test.fail_reportf "%d lowerings, at most %d expected" plan.Interp.lowerings at_most;
  let p = Test_reference.every_stage p in
  let inputs = Interp.random_inputs ~seed:3 p in
  let results = Interp.run p ~inputs in
  List.for_all
    (fun (name, values, valid) ->
      let r = List.assoc name results in
      let bits = Array.map Int64.bits_of_float in
      bits values = bits r.Interp.tensor.Sf_reference.Tensor.data
      && valid = r.Interp.valid)
    (Test_reference.per_cell_oracle p ~inputs)

(* [e] with its row offset (the one before the lane offset) moved by
   one: in [e + row_shifted e], a computed value read at two rows, which
   a field that shifts along the row axis keeps in a ring. *)
let row_shifted e =
  Expr.map_accesses
    (fun ~field ~offsets ->
      let n = List.length offsets in
      let offsets = List.mapi (fun i o -> if i = n - 2 then o + 1 else o) offsets in
      Expr.Access { field; offsets })
    e

(* One stage of a chain over the template body [lets; result] in the
   fields "x" and "c": "x" becomes [x], "c" one of two inputs of the
   same arity that span different axes, the let takes the name [name],
   and [nudge] moves the first offset of the template's first access
   of "x". *)
let twin_stage ~stage ~x ~c ~x_boundary ~c_boundary ~name ~nudge ~shrink (e1, e2) =
  let first_x =
    List.find_map
      (fun (f, o) -> if String.equal f "x" then Some o else None)
      (Expr.accesses e1 @ Expr.accesses e2)
  in
  let rename ~field ~offsets =
    let offsets =
      if nudge && String.equal field "x" && Some offsets = first_x then
        List.mapi (fun i o -> if i = 0 then o + 1 else o) offsets
      else offsets
    in
    Expr.Access { field = (if String.equal field "x" then x else c); offsets }
  in
  Stencil.make ~shrink
    ~boundary:[ (x, x_boundary); (c, c_boundary) ]
    ~name:stage
    {
      Expr.lets = [ (name, Expr.map_accesses rename e1) ];
      result = Expr.Binary (Expr.Add, Expr.Var name, Expr.map_accesses rename e2);
    }

(* Per rank: the shape and the two "c" inputs (one arity, other axes). *)
let twin_inputs = function
  | 1 -> ([ 8 ], [ ("ca", [ 0 ]); ("cb", [ 0 ]) ])
  | 2 -> ([ 5; 6 ], [ ("ca", [ 0 ]); ("cb", [ 1 ]) ])
  | _ -> ([ 3; 4; 6 ], [ ("ca", [ 0; 2 ]); ("cb", [ 1; 2 ]) ])

let twin_program ~rank stages =
  let shape, cs = twin_inputs rank in
  let read = List.concat_map (fun (s : Stencil.t) -> Stencil.input_fields s) stages in
  let inputs =
    Field.make ~name:"x0" ~full_rank:rank ()
    :: List.map (fun (n, axes) -> Field.make ~axes ~name:n ~full_rank:rank ()) cs
    |> List.filter (fun (f : Field.t) -> List.mem f.Field.name read)
  in
  Program.make ~name:"twins" ~shape ~inputs
    ~outputs:(List.map (fun (s : Stencil.t) -> s.Stencil.name) stages)
    stages

(* Chains of 2-6 stages over one random template, each stage reading the
   one before: each an exact twin of the template under renamed fields,
   or a near-twin by its "c" input, its boundaries, a nudged offset or a
   renamed let; shrink flags vary and change no lowering. Stages with
   the same choices must share, so the lowerings are at most the
   distinct choices. *)
let twin_chain_gen =
  let open QCheck.Gen in
  let* rank = int_range 1 3 in
  let _, cs = twin_inputs rank in
  let crank = List.length (snd (List.hd cs)) in
  let fields = [ ("x", rank); ("c", crank) ] in
  let* e1 = Program_gen.expr_gen ~fields ~depth:2 in
  let* e2 = Program_gen.expr_gen ~fields ~depth:2 in
  (* Every stage reads the one before it and its "c" input. *)
  let zero (f, r) = Expr.Access { field = f; offsets = List.init r (fun _ -> 0) } in
  let reads = Expr.Binary (Expr.Mul, zero (List.hd fields), zero (List.nth fields 1)) in
  let e2 = Expr.Binary (Expr.Add, e2, reads) in
  let* ringed = bool in
  let e2 = if ringed then Expr.Binary (Expr.Add, e2, row_shifted e2) else e2 in
  let* length = int_range 2 6 in
  let boundary = oneofl [ Boundary.Constant 0.5; Boundary.Constant (-1.); Boundary.Copy ] in
  let* choices =
    list_repeat length
      (pair
         (triple (oneofl cs) boundary boundary)
         (triple (oneofl [ "t"; "u" ]) (frequency [ (3, return false); (1, return true) ]) bool))
  in
  let stages =
    List.mapi
      (fun i (((c, _), x_boundary, c_boundary), (name, nudge, shrink)) ->
        twin_stage ~stage:(Printf.sprintf "s%d" i)
          ~x:(if i = 0 then "x0" else Printf.sprintf "s%d" (i - 1))
          ~c ~x_boundary ~c_boundary ~name ~nudge ~shrink (e1, e2))
      choices
  in
  let kind = function Boundary.Constant _ -> 0 | Boundary.Copy -> 1 in
  let distinct =
    List.sort_uniq compare
      (List.map
         (fun (((c, _), xb, cb), (name, nudge, _)) -> (c, kind xb, kind cb, name, nudge))
         choices)
  in
  return (twin_program ~rank stages, List.length distinct)

let prop_lowering_key =
  QCheck.Test.make ~count:200 ~name:"stages share a lowering only where their own lowering is equal"
    QCheck.(
      make
        ~print:(fun (p, _) -> Format.asprintf "%a" Program.pp p)
        Gen.(
          oneof
            [
              twin_chain_gen;
              map
                (fun (p : Program.t) -> (p, List.length p.Program.stencils))
                Program_gen.program_gen;
            ]))
    (fun (p, at_most) -> shares_soundly ~at_most p)

(* Near-twins of a 3-D two-stage chain that must not share: the second
   stage differs from the first by a Copy boundary where the first has
   a Constant one, by reading a "c" input along the plane axis rather
   than the row axis (Uniform along the row), by one offset, or by the
   name of its let. The exact twin shares. The template reads the
   x-role field and "c" at two rows each, so a row-spanning field with
   a Constant boundary keeps a ring. *)
let test_lowering_near_twins () =
  let acc field offsets = Expr.Access { field; offsets } in
  let body =
    ( Expr.Binary (Expr.Sub, acc "x" [ 0; 0; 1 ], acc "x" [ 0; 0; -1 ]),
      Expr.Binary
        ( Expr.Add,
          Expr.Call (Expr.Min, [ acc "c" [ 0; 0 ]; acc "c" [ 0; 1 ] ]),
          Expr.Call (Expr.Min, [ acc "c" [ 1; 0 ]; acc "c" [ 1; 1 ] ]) ) )
  in
  let stage i ?(c = "cb") ?(x_boundary = Boundary.Constant 0.) ?(name = "t") ?(nudge = false) () =
    twin_stage ~stage:(Printf.sprintf "s%d" i)
      ~x:(if i = 0 then "x0" else "s0")
      ~c ~x_boundary ~c_boundary:(Boundary.Constant 0.) ~name ~nudge ~shrink:false body
  in
  List.iter
    (fun (what, second, lowerings) ->
      let p = twin_program ~rank:3 [ stage 0 (); second ] in
      Alcotest.(check int) (what ^ ": lowerings") lowerings
        (Interp.plan (Program.check_exn p)).Interp.lowerings;
      Alcotest.(check bool) (what ^ ": shared programs equal their own lowering") true
        (shares_soundly ~at_most:lowerings p))
    [
      ("exact twin", stage 1 (), 1);
      ("Copy boundary", stage 1 ~x_boundary:Boundary.Copy (), 2);
      ("input Uniform along the row", stage 1 ~c:"ca" (), 2);
      ("one offset", stage 1 ~nudge:true (), 2);
      ("renamed let", stage 1 ~name:"u" (), 2);
    ];
  let rings c =
    let plan = Interp.plan (Program.check_exn (twin_program ~rank:3 [ stage 0 ~c () ])) in
    Compile.rings (snd (List.hd plan.Interp.stages))
  in
  Alcotest.(check (pair int int)) "rings over cb and over ca" (1, 0) (rings "cb", rings "ca")

(* Load runs copied into a frame against runs read in place, on
   chain-sim (64 Jacobi2D stages over 128x128): counts host noise cannot
   move. The oracle dispatches one row at a time: of a stage's three
   runs, the center row's spans the row and a lane either side, so it is
   copied with its boundary cells, and the rows above and below are read
   in place, except above the first row and below the last, which are
   copied too: 126 + 2 * 2 = 130 copied and 2 * 126 + 2 = 254 bound per
   stage. The stencil units dispatch row segments of up to a chunk, so a
   segment away from the row's ends reads its center row in place, and a
   run that wraps its channel's ring is copied. *)
let test_load_runs_pinned () =
  let p = Sf_kernels.Iterative.(chain ~shape:[ 128; 128 ] Jacobi2d ~length:64) in
  let inputs = Interp.random_inputs p in
  let prepared = Sf_sim.Engine.prepare_program p in
  let add r (c, b) = r := (fst !r + c, snd !r + b) in
  let oracle = ref (0, 0) and units = ref (0, 0) in
  ignore (Interp.prepare ~load_runs:(add oracle) prepared.Sf_sim.Engine.plan ~inputs ());
  Alcotest.(check (pair int int)) "oracle: copied, bound" (64 * 130, 64 * 254) !oracle;
  let config = Sf_sim.Engine.Config.default in
  ignore
    (Sf_sim.Engine.Internal.simulate ~config ~placement:(fun _ -> 0) ~inputs prepared
       ~drive:(fun system injector finished ->
         let s = Sf_sim.Engine.Internal.scheduler ~config ?injector ~finished system in
         s.Sf_sim.Engine.Internal.advance ~limit:max_int;
         Array.iter
           (function
             | Sf_sim.Engine.Internal.Cunit u -> add units (Sf_sim.Stencil_unit.load_runs u) | _ -> ())
           system.Sf_sim.Engine.Internal.comps;
         (s.now (), s.deadlocked (), s.samples ())));
  Alcotest.(check (pair int int)) "stencil units: copied, bound" (11507, 19309) !units

(* In place equals copying ---------------------------------------------------- *)

(* A body over a 2-D field [a] streamed through a ring that wraps (its
   capacity is no multiple of the row length, so runs start anywhere in
   it, straddle its end or end exactly there), a field [r] along the row
   axis (a step-0 tap: one element repeated over the lanes) and a field
   [k] along the lane axis, each with a random Constant or Copy
   boundary. The result is a computed value (with or without a value
   read at two rows, kept in a ring when the rows are shared), a load
   or a constant, with a let computed beside it. *)
let in_place_gen =
  let open QCheck.Gen in
  let fields = [ ("a", 2); ("r", 1); ("k", 1) ] in
  let* e1 = Program_gen.adversarial_expr_gen ~fields ~depth:3 in
  let* e2 = Program_gen.adversarial_expr_gen ~fields ~depth:2 in
  let* result = int_range 0 3 in
  let* boundaries = list_repeat 3 Program_gen.boundary_gen in
  let* rows = bool in
  let* shrink = bool in
  let* cols = oneofl [ 12; 16; 20 ] in
  let* seed = small_nat in
  (* [e] read one row further down, along the axes that are rows. *)
  let down =
    Expr.map_accesses (fun ~field ~offsets ->
        let offsets = if field = "k" then offsets else List.mapi (fun i o -> if i = 0 then o + 1 else o) offsets in
        Expr.Access { field; offsets })
  in
  (* Every body reads [a] one row down, in bounds but on the last row. *)
  let with_a e = Expr.Binary (Expr.Add, e, Expr.Access { field = "a"; offsets = [ 1; 0 ] }) in
  let body =
    match result with
    | 0 -> { Expr.lets = [ ("t", with_a e2) ]; result = Expr.Binary (Expr.Add, e1, down e1) }
    | 1 -> { Expr.lets = [ ("t", with_a e2) ]; result = Expr.Binary (Expr.Mul, Expr.Var "t", e1) }
    | 2 -> { Expr.lets = [ ("t", with_a e1) ]; result = Expr.Access { field = "a"; offsets = [ 0; 1 ] } }
    | _ -> { Expr.lets = [ ("t", with_a e1) ]; result = Expr.Const (-0.0) }
  in
  return (body, List.combine [ "a"; "r"; "k" ] boundaries, rows, shrink, cols, seed)

let print_in_place (body, boundaries, rows, shrink, cols, seed) =
  Printf.sprintf "%s\n[%s] rows %b shrink %b cols %d seed %d"
    (Expr.body_to_string body)
    (String.concat "; " (List.map (fun (f, b) -> f ^ "=" ^ Boundary.to_string b) boundaries))
    rows shrink cols seed

(* The dispatches of the body in row-major order, in random row
   segments, on two frames: one that [fill] binds (every run wholly in
   bounds along the lane axis that does not wrap the ring is read where
   it lies, and a computed result is written straight into a row that
   wraps a destination ring now and then), and one whose load slots the
   test copies itself, cell by cell from the sources, as [fill] copied
   before any run was bound. The two must agree bit for bit, and with
   the tree-walking evaluator, values and flags; the binding frame must
   have bound some runs and copied others. *)
let prop_in_place_equals_copying =
  QCheck.Test.make ~count:300 ~name:"in place equals copying, bit for bit"
    (QCheck.make ~print:print_in_place in_place_gen)
    (fun ((body, boundaries, rows, shrink, cols, seed) as case) ->
      let nrows = 10 and max_lanes = 8 in
      let shape = [| nrows; cols |] in
      let boundary f = List.assoc f boundaries in
      let spans f = match f with "a" -> [ 0; 1 ] | "r" -> [ 0 ] | _ -> [ 1 ] in
      let along axis f =
        if not (List.mem axis (spans f)) then Compile.Uniform
        else match boundary f with Boundary.Constant _ -> Compile.Shifts | Boundary.Copy -> Compile.Fixed
      in
      let prog =
        Compile.lower ?rows:(if rows then Some (cols, along 0) else None) ~lane:(along 1) body
      in
      let state = Random.State.make [| seed |] in
      let value () =
        if Random.State.int state 4 = 0 then
          adversarial_values.(Random.State.int state (Array.length adversarial_values))
        else Random.State.float state 2. -. 1.
      in
      let a = Array.init (nrows * cols) (fun _ -> value ())
      and r = Array.init nrows (fun _ -> value ())
      and k = Array.init cols (fun _ -> value ()) in
      let data = function "a" -> a | "r" -> r | _ -> k in
      (* Field [f] at the cell [(row, col)] plus [offsets], or [None]
         out of bounds. *)
      let element f (row, col) offsets =
        let at = List.map2 (fun axis o -> ((if axis = 0 then row else col) + o, shape.(axis))) (spans f) offsets in
        if List.exists (fun (i, n) -> i < 0 || i >= n) at then None
        else Some (data f).(List.fold_left (fun flat (i, n) -> (flat * n) + i) 0 at)
      in
      let read f cell offsets =
        match element f cell offsets with
        | Some v -> (v, false)
        | None -> (
            match boundary f with
            | Boundary.Constant c -> (c, true)
            | Boundary.Copy -> (Option.get (element f cell (List.map (fun _ -> 0) offsets)), true))
      in
      (* Ring [a]: the last [cap] elements of its row-major stream, up to
         what the dispatch at [(row, col)] of [lanes] cells may read. *)
      let cap = (6 * cols) + max_lanes + 7 in
      let ring = Compile.view (Array.make cap Float.nan) ~span:cap in
      let advance_ring (row, col) lanes =
        let newest = Int.min ((nrows * cols) - 1) (((row + 3) * cols) + col + lanes + 2) in
        for e = Int.max 0 (newest - cap + 1) to newest do
          ring.data.(e mod cap) <- a.(e)
        done;
        ring.newest <- newest;
        ring.head <- newest mod cap
      in
      let taps =
        Compile.taps prog ~shape (fun f ->
            ((if f = "a" then ring else Compile.resident (data f)), Array.of_list (spans f), boundary f))
      in
      let stride = Compile.stride prog ~lanes:max_lanes in
      let bound = Compile.frame prog ~lanes:max_lanes and copied = Compile.frame prog ~lanes:max_lanes in
      let oob = Array.make max_lanes false in
      let dlen = 29 in
      let ring_dst = Array.make dlen Float.nan and row_dst = Array.make max_lanes Float.nan in
      let pos = ref 0 and ok = ref true in
      let idx = [| 0; 0 |] in
      while !ok && idx.(0) < nrows do
        let lanes = Int.min (cols - idx.(1)) (1 + Random.State.int state max_lanes) in
        let cell = (idx.(0), idx.(1)) in
        advance_ring cell lanes;
        if shrink then Compile.fill taps ~idx ~lanes bound ~oob else Compile.fill taps ~idx ~lanes bound;
        Compile.exec prog ~idx ~lanes bound ~dst:ring_dst ~at:!pos;
        (* Copy every load run into its slot, as [fill] did before. *)
        let cells = Compile.cells copied in
        Array.iteri
          (fun s (f, offsets) ->
            (* A run along the lanes reads lane [c]'s cell (and, with a
               Copy boundary, has no cells past the lanes); a step-0 run
               repeats lane 0's element. *)
            let spans_lanes = List.mem 1 (spans f) in
            for c = 0 to stride - 1 do
              cells.((s * stride) + c) <-
                (if not spans_lanes then fst (read f cell offsets)
                 else if boundary f = Boundary.Copy && c >= lanes then 0.
                 else fst (read f (idx.(0), idx.(1) + c) offsets))
            done)
          (Compile.loads prog);
        Compile.exec prog ~idx ~lanes copied ~dst:row_dst ~at:0;
        for l = 0 to lanes - 1 do
          let out = ref false in
          let lookup ~field ~offsets =
            let v, o = read field (idx.(0), idx.(1) + l) offsets in
            if o then out := true;
            v
          in
          let want = eval_cell ~lookup body in
          let got = ring_dst.((!pos + l) mod dlen) in
          let bits = Int64.bits_of_float in
          if not (Int64.equal (bits got) (bits row_dst.(l)) && Int64.equal (bits got) (bits want)) then begin
            ok := false;
            QCheck.Test.fail_reportf "%s\n[%d,%d] lanes %d, lane %d: in place %h, copied %h, evaluator %h"
              (print_in_place case) idx.(0) idx.(1) lanes l got row_dst.(l) want
          end;
          if shrink && not (Bool.equal !out oob.(l)) then
            QCheck.Test.fail_reportf "[%d,%d] lanes %d, lane %d: out of bounds %b, flagged %b" idx.(0)
              idx.(1) lanes l !out oob.(l)
        done;
        pos := (!pos + lanes) mod dlen;
        idx.(1) <- idx.(1) + lanes;
        if idx.(1) = cols then begin
          idx.(1) <- 0;
          idx.(0) <- idx.(0) + 1
        end
      done;
      let c, b = Compile.load_runs taps in
      (c > 0 && b > 0) || QCheck.Test.fail_reportf "%d runs copied, %d bound" c b)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_shared_lowering_bit_exact;
    QCheck_alcotest.to_alcotest prop_in_place_equals_copying;
    Alcotest.test_case "load runs copied and bound on chain-sim, pinned" `Quick test_load_runs_pinned;
    Alcotest.test_case "shift-shared lowering: instructions and load runs pinned" `Quick
      test_lowering_pins;
    QCheck_alcotest.to_alcotest prop_lowering_key;
    Alcotest.test_case "near-twin stages lower apart" `Quick test_lowering_near_twins;
    QCheck_alcotest.to_alcotest prop_lanes_bit_exact;
    QCheck_alcotest.to_alcotest prop_wide_frame_sentinels;
    Alcotest.test_case "lets evaluate once per call" `Quick test_body_lets_evaluate_once;
    Alcotest.test_case "body adapter equals the evaluator" `Quick test_body_adapter_equals_eval;
    Alcotest.test_case "unbound variables rejected" `Quick test_unbound_variable_rejected;
    Alcotest.test_case "let ordering enforced" `Quick test_let_ordering;
    Alcotest.test_case "exec allocates nothing" `Quick test_exec_allocation_free;
    Alcotest.test_case "fused forms equal the evaluator on IEEE corners" `Quick
      test_fused_forms_ieee_corners;
    Alcotest.test_case "fill reads runs across a ring's wrap" `Quick test_fill_across_ring_wrap;
    Alcotest.test_case "a view reads only its span" `Quick test_view_reads_its_span;
    Alcotest.test_case "slots: dying operands reused, result pinned" `Quick test_slot_reuse;
    Alcotest.test_case "hdiff frames hold the live slots" `Quick test_hdiff_frame_slots;
  ]
