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

(* The value of load ([field], [offsets]) in lane [lane], from [seed]. *)
let leaf_value ~seed ~field ~offsets ~lane =
  let h = Hashtbl.hash (seed, field, offsets, lane) in
  if h mod 3 = 0 then float_of_int (h mod 97) /. 7. -. 5.
  else adversarial_values.(h mod Array.length adversarial_values)

(* A NaN whose payload names frame cell [cell]: no computed value, not
   even a NaN propagated from another cell, has these bits. *)
let sentinel cell = Int64.float_of_bits (Int64.logor 0x7ff8_5e00_0000_0000L (Int64.of_int cell))

(* Run [e] over [lanes] cells of a frame of slot stride [stride]
   (default [lanes]) whose cells past [lanes] hold sentinels. Every lane
   must equal the tree-walking evaluator bit for bit, and every sentinel
   must survive: [exec] writes lanes [0, lanes) of each slot and no
   other cell. *)
let lanes_match_interp ?stride ~seed e lanes =
  let stride = Option.value stride ~default:lanes in
  let b = bind_vars e in
  let p = Compile.lower ~lane:fixed b in
  let fr = Compile.frame p ~lanes:stride in
  let outside cell = cell mod stride >= lanes in
  Array.iteri (fun cell _ -> if outside cell then fr.(cell) <- sentinel cell) fr;
  Array.iteri
    (fun k (field, offsets) ->
      for lane = 0 to lanes - 1 do
        fr.((k * stride) + lane) <- leaf_value ~seed ~field ~offsets ~lane
      done)
    (Compile.loads p);
  Compile.exec p ~lanes fr;
  List.for_all
    (fun lane ->
      let lookup ~field ~offsets = leaf_value ~seed ~field ~offsets ~lane in
      let expected =
        Interp.eval_expr ~lookup ~env:(fun v -> Some (lookup ~field:v ~offsets:[])) e
      in
      let got = fr.(Compile.result p ~stride + lane) in
      Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)
      || QCheck.Test.fail_reportf "lanes=%d lane=%d: expected %h, got %h" lanes lane expected got)
    (List.init lanes Fun.id)
  && List.for_all
       (fun cell ->
         (not (outside cell))
         || Int64.equal (Int64.bits_of_float fr.(cell)) (Int64.bits_of_float (sentinel cell))
         || QCheck.Test.fail_reportf "lanes=%d stride=%d: cell %d (slot %d, lane %d) written"
              lanes stride cell (cell / stride) (cell mod stride))
       (List.init (Array.length fr) Fun.id)

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

(* Every computed value below can take a slot its operands free at the
   same instruction, so the frame holds only the loads and constants;
   the lane loops must read each lane before overwriting it. The result
   keeps its slot: a binding nothing reads, computed after it, must take
   another. *)
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
  Alcotest.(check int) "loads and constants only" 6 (Array.length (Compile.frame p ~lanes:1));
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
  let fr = Compile.frame p ~lanes:1 in
  Alcotest.(check int) "two slots" 2 (Array.length fr);
  Array.iteri (fun k (field, _) -> fr.(k) <- (if field = "a" then 3. else 5.)) (Compile.loads p);
  Compile.exec p ~lanes:1 fr;
  Alcotest.(check (float 0.)) "result kept" (-3.) fr.(Compile.result p ~stride:1)

(* Liveness keeps frames small: fused, optimized hdiff at W=4 had 138
   slots in its u_out frame with one slot per node. *)
let test_hdiff_frame_slots () =
  let p = Sf_kernels.Hdiff.program ~shape:[ 8; 64; 64 ] ~vector_width:4 () in
  let p = Sf_sdfg.Opt.optimize (fst (Sf_sdfg.Fusion.fuse_all p)) in
  let s = List.find (fun (s : Stencil.t) -> s.Stencil.name = "u_out") p.Program.stencils in
  let slots = Array.length (Compile.frame (Compile.lower ~lane:fixed s.Stencil.body) ~lanes:1) in
  if slots > 40 then Alcotest.failf "u_out frame has %d slots" slots

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

(* A stencil unit's window is a ring that wraps. [fill] reads the lanes
   of an in-bounds run with at most two blits split at the wrap point, and
   a tap that does not span the innermost axis repeats one element; every
   lane must still equal the tree-walking evaluator, bit for bit. *)
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
  let win = { Compile.data = Array.make cap 0.; cap; newest = -1; head = -1 } in
  let taps =
    Compile.taps p ~shape (fun field ->
        if field = "a" then (win, [| 0; 1 |], Boundary.Constant 0.)
        else (Compile.resident (Array.init rows row_value), [| 0 |], Boundary.Constant 0.))
  in
  let fr = Compile.frame p ~lanes:max_lanes and oob = Array.make max_lanes false in
  let stride = Compile.stride p ~lanes:max_lanes in
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
        Compile.fill taps ~idx:[| r; c |] ~lanes ~stride fr ~oob;
        Compile.exec p ~lanes fr;
        for l = 0 to lanes - 1 do
          let lookup ~field ~offsets =
            match (field, offsets) with
            | "a", [ dr; dc ] -> value (((r + dr) * cols) + c + l + dc)
            | _, [ dr ] -> row_value (r + dr)
            | _ -> Alcotest.fail "unexpected access"
          in
          let expected = Interp.eval_expr ~lookup ~env:(fun _ -> None) e in
          let got = fr.(Compile.result p ~stride + l) in
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
   four-lane blocks (4 lanes) and with a tail (67). Between them the four
   units run every fused form. *)
let test_exec_allocation_free () =
  let p = Sf_kernels.Hdiff.program ~shape:[ 4; 16; 16 ] ~vector_width:4 () in
  let p = Sf_sdfg.Opt.optimize (fst (Sf_sdfg.Fusion.fuse_all p)) in
  List.iter
    (fun ((s : Stencil.t), prog) ->
      List.iter
        (fun lanes ->
          let fr = Compile.frame prog ~lanes in
          for k = 0 to (Array.length (Compile.loads prog) * Compile.stride prog ~lanes) - 1 do
            fr.(k) <- 0.25 +. (float_of_int k /. 7.)
          done;
          Compile.exec prog ~lanes fr;
          let calls = 10_000 in
          let before = Gc.minor_words () in
          for _ = 1 to calls do
            Compile.exec prog ~lanes fr
          done;
          let words = (Gc.minor_words () -. before) /. float_of_int calls in
          if words >= 1. then
            Alcotest.failf "%s: exec allocates %.2f minor words per call at %d lanes" s.Stencil.name
              words lanes)
        [ 4; 67 ])
    (Interp.plan p).Interp.stages

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
        let fr = Compile.frame p ~lanes in
        let stride = Compile.stride p ~lanes in
        Array.iteri
          (fun k (field, _) ->
            for l = 0 to lanes - 1 do
              fr.((k * stride) + l) <- List.assoc field cases.(first + l)
            done)
          (Compile.loads p);
        Compile.exec p ~lanes fr;
        for l = 0 to lanes - 1 do
          let case = cases.(first + l) in
          let expected =
            Interp.eval_expr ~lookup:(fun ~field ~offsets:_ -> List.assoc field case) ~env:(fun _ -> None) e
          in
          Alcotest.(check int64)
            (Printf.sprintf "%s with %s" name
               (String.concat ", " (List.map (fun (f, c) -> Printf.sprintf "%s = %h" f c) case)))
            (Int64.bits_of_float expected)
            (Int64.bits_of_float fr.(Compile.result p ~stride + l))
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

(* [e] with the innermost-axis offset of every access to one of
   [lane_fields] (the fields that span that axis) moved by [d]. *)
let shift_lanes ~lane_fields d e =
  Expr.map_accesses
    (fun ~field ~offsets ->
      let offsets =
        if List.mem field lane_fields then
          List.mapi (fun i o -> if i = List.length offsets - 1 then o + d else o) offsets
        else offsets
      in
      Expr.Access { field; offsets })
    e

(* One cell of a body, the way the spatial pipeline computes it: the
   lets in order (each one evaluated, read or not), then the result;
   [lookup] records whether any load was out of bounds. *)
let eval_cell ~lookup (b : Expr.body) =
  let env = Hashtbl.create 8 in
  List.iter
    (fun (n, e) -> Hashtbl.replace env n (Interp.eval_expr ~lookup ~env:(Hashtbl.find_opt env) e))
    b.Expr.lets;
  Interp.eval_expr ~lookup ~env:(Hashtbl.find_opt env) b.Expr.result

(* A generated program whose innermost extent is 66, so that a 64-lane
   dispatch can start mid-row; each body also reads itself one lane to
   the right (so most of its nodes share a class with a shifted twin),
   and binds a let it never reads: its first load, three lanes further
   right, which can widen a run past every load the result reads. *)
let widened (p : Program.t) =
  let rank = Program.rank p in
  let shape = List.mapi (fun d e -> if d = rank - 1 then 66 else e) p.Program.shape in
  let lane_fields =
    List.filter_map
      (fun (f : Field.t) -> if List.mem (rank - 1) f.Field.axes then Some f.Field.name else None)
      p.Program.inputs
    @ List.map (fun (s : Stencil.t) -> s.Stencil.name) p.Program.stencils
  in
  let stencils =
    List.map
      (fun (s : Stencil.t) ->
        let e = s.Stencil.body.Expr.result in
        let unused =
          match Expr.accesses e with
          | (field, offsets) :: _ -> [ ("unused", shift_lanes ~lane_fields 3 (Expr.Access { field; offsets })) ]
          | [] -> []
        in
        { s with
          Stencil.body =
            { Expr.lets = unused; result = Expr.Binary (Expr.Add, e, shift_lanes ~lane_fields 1 e) } })
      p.Program.stencils
  in
  { p with Program.shape; stencils }

(* The lowering the stencil units and the oracle share (Interp.plan),
   run by [fill] and [exec] over one dispatch of consecutive cells of a
   row, must equal the tree-walking evaluator lane by lane: the value bit
   for bit, and the validity flag as the OR over every load of the body,
   unread lets included. Constant and Copy boundaries mix, lower-rank
   inputs broadcast or are scalars, and dispatches of 1, 3, 4 and 64
   lanes start at the row start, mid-row, and end at the row end. Each
   dispatch is filled once without flags (as for a stencil that does not
   shrink) and once with them: the two frames must be bit-identical. *)
let prop_shared_lowering_bit_exact =
  QCheck.Test.make ~count:150 ~name:"shift-shared fill + exec equal the evaluator, values and flags"
    QCheck.(pair Program_gen.arbitrary_adversarial_program small_nat)
    (fun (p, seed) ->
      let p = widened p in
      let plan = Interp.plan p in
      let checked = plan.Interp.checked in
      let shape = Array.of_list p.Program.shape in
      let rank = Array.length shape in
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
          let stride = Compile.stride prog ~lanes:64 in
          let fr = Compile.frame prog ~lanes:64 and oob = Array.make 64 false in
          let idx = Array.map (fun e -> Random.State.int state e) shape in
          List.for_all
            (fun (lanes, start) ->
              idx.(rank - 1) <- start;
              Compile.fill taps ~idx ~lanes ~stride fr;
              let unflagged = Array.copy fr in
              Compile.fill taps ~idx ~lanes ~stride fr ~oob;
              (Array.for_all2
                 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
                 unflagged fr
              || QCheck.Test.fail_reportf "%s, %d lanes from %d: the fill without flags differs"
                   s.Stencil.name lanes start)
              &&
              (Compile.exec prog ~lanes fr;
               List.for_all
                (fun l ->
                  let cell = Array.copy idx in
                  cell.(rank - 1) <- start + l;
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
                  let expected = eval_cell ~lookup s.Stencil.body in
                  let got = fr.(Compile.result prog ~stride + l) in
                  (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)
                  || QCheck.Test.fail_reportf "%s, %d lanes from %d, lane %d: expected %h, got %h"
                       s.Stencil.name lanes start l expected got)
                  && (Bool.equal !out oob.(l)
                     || QCheck.Test.fail_reportf "%s, %d lanes from %d, lane %d: oob %b, flagged %b"
                          s.Stencil.name lanes start l !out oob.(l)))
                (List.init lanes Fun.id)))
            (List.concat_map
               (fun lanes -> [ (lanes, 0); (lanes, 1 + Random.State.int state (66 - lanes)); (lanes, 66 - lanes) ])
               [ 1; 3; 4; 64 ]))
        plan.Interp.stages)

(* Instructions and load runs per cell of the shared lowering: counts
   host noise cannot move. Without sharing (every node its own class,
   the lowering before lane-shift classes) fused jacobi2d_8stage ran 816
   instructions and 81 load runs per cell, and fused, optimized hdiff at
   W = 4 ran 103 + 103 + 78 + 78 = 362 instructions and 31 + 31 + 21 + 21
   = 104 load runs over its four units. With lane-shift classes and no
   fused forms they ran 256 and 81 + 81 + 56 + 56 = 274 instructions, on
   the same load runs as now. *)
let test_lowering_pins () =
  let counts p =
    List.map
      (fun ((s : Stencil.t), prog) ->
        (s.Stencil.name, Compile.instructions prog, Array.length (Compile.loads prog)))
      (Interp.plan p).Interp.stages
  in
  let triple = Alcotest.(list (triple string int int)) in
  let jacobi = Test_sim_parity.example "jacobi2d_8stage.json" in
  Alcotest.check triple "fused jacobi2d_8stage" [ ("f8", 128, 17) ]
    (counts (fst (Sf_sdfg.Fusion.fuse_all jacobi)));
  let hdiff = Sf_kernels.Hdiff.program ~shape:[ 8; 64; 64 ] ~vector_width:4 () in
  Alcotest.check triple "fused, optimized hdiff at W=4"
    [ ("u_out", 51, 21); ("v_out", 51, 21); ("w_out", 36, 13); ("pp_out", 36, 13) ]
    (counts (Sf_sdfg.Opt.optimize (fst (Sf_sdfg.Fusion.fuse_all hdiff))))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_shared_lowering_bit_exact;
    Alcotest.test_case "shift-shared lowering: instructions and load runs pinned" `Quick
      test_lowering_pins;
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
    Alcotest.test_case "slots: dying operands reused, result pinned" `Quick test_slot_reuse;
    Alcotest.test_case "hdiff frames hold the live slots" `Quick test_hdiff_frame_slots;
  ]
