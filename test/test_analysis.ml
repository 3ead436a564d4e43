open Sf_ir
open Sf_analysis
module E = Builder.E

(* Build a one-stencil 3D program with the given accesses to input a. *)
let program_with_accesses ?(vector_width = 1) ~shape offsets =
  let b = Builder.create ~vector_width ~name:"p" ~shape () in
  Builder.input b "a";
  Builder.stencil b
    ~boundary:[ ("a", Boundary.Constant 0.) ]
    "s"
    (E.sum (List.map (fun o -> E.acc "a" o) offsets));
  Builder.output b "s";
  Builder.finish b

let internal_of p =
  let s = List.hd p.Program.stencils in
  List.hd (Internal_buffer.of_accesses p (Stencil.accesses s))

(* Fig. 7: in a {K,J,I} space, accesses [0,1,0] and [0,-1,0] buffer two
   rows (2I + W); accesses [1,0,0] and [-1,0,0] buffer two slices
   (2IJ + W). *)
let test_fig7_rows () =
  let i = 8 and j = 6 in
  let p = program_with_accesses ~shape:[ 4; j; i ] [ [ 0; 1; 0 ]; [ 0; -1; 0 ] ] in
  let buf = internal_of p in
  Alcotest.(check int) "2I+W" ((2 * i) + 1) buf.Internal_buffer.size_elements

let test_fig7_slices () =
  let i = 8 and j = 6 in
  let p = program_with_accesses ~shape:[ 4; j; i ] [ [ 1; 0; 0 ]; [ -1; 0; 0 ] ] in
  let buf = internal_of p in
  Alcotest.(check int) "2IJ+W" ((2 * i * j) + 1) buf.Internal_buffer.size_elements

let test_vector_width_term () =
  let i = 8 and j = 6 and w = 4 in
  let p = program_with_accesses ~vector_width:w ~shape:[ 4; j; i ] [ [ 0; 1; 0 ]; [ 0; -1; 0 ] ] in
  let buf = internal_of p in
  Alcotest.(check int) "2I+W" ((2 * i) + w) buf.Internal_buffer.size_elements

let test_intermediate_accesses_do_not_grow_buffer () =
  (* Accesses between the lowest and highest offset do not affect size
     (Sec. IV-A). *)
  let shape = [ 4; 6; 8 ] in
  let two = program_with_accesses ~shape [ [ 0; 1; 0 ]; [ 0; -1; 0 ] ] in
  let four = program_with_accesses ~shape [ [ 0; 1; 0 ]; [ 0; 0; 1 ]; [ 0; 0; -1 ]; [ 0; -1; 0 ] ] in
  Alcotest.(check int) "same size"
    (internal_of two).Internal_buffer.size_elements
    (internal_of four).Internal_buffer.size_elements

let test_single_access_no_buffer () =
  let p = program_with_accesses ~shape:[ 4; 6; 8 ] [ [ 0; 0; 0 ] ] in
  let buf = internal_of p in
  Alcotest.(check int) "no buffer" 0 buf.Internal_buffer.size_elements;
  Alcotest.(check int) "no init" 0 buf.Internal_buffer.init_elements

(* Stream start steps, in words: [a] spans two slices (96 elements
   behind and ahead of the center) and reads ahead 96 elements, [bb] one
   element each way and reads ahead 2. At W = 4 the read-aheads round up
   to 25 and 2 words, so [bb] starts 23 steps late; an element count
   (94 / 4) would not land on a word. *)
let test_fill_step () =
  let build vector_width =
    let b = Builder.create ~vector_width ~name:"p" ~shape:[ 4; 6; 8 ] () in
    Builder.input b "a";
    Builder.input b "bb";
    Builder.stencil b
      ~boundary:[ ("a", Boundary.Constant 0.); ("bb", Boundary.Constant 0.) ]
      "s"
      E.(
        acc "a" [ 1; 0; 0 ] +% acc "a" [ -1; 0; 0 ]
        +% (acc "bb" [ 0; 0; 1 ] +% acc "bb" [ 0; 0; -1 ]));
    Builder.output b "s";
    Builder.finish b
  in
  List.iter
    (fun (w, init, bb_start) ->
      let p = build w in
      let s = List.hd p.Program.stencils in
      let bufs = Internal_buffer.of_accesses p (Stencil.accesses s) in
      let find f = List.find (fun (x : Internal_buffer.t) -> x.field = f) bufs in
      let label what = Printf.sprintf "W=%d: %s" w what in
      Alcotest.(check int) (label "init cycles") init (Internal_buffer.init_cycles bufs);
      (* The largest buffer (a) starts immediately; the smaller (bb) is
         delayed by the difference of the read-aheads. *)
      Alcotest.(check int) (label "a starts first") 0 (Internal_buffer.fill_step bufs (find "a"));
      Alcotest.(check int) (label "bb delayed") bb_start
        (Internal_buffer.fill_step bufs (find "bb")))
    [ (1, 96, 94); (4, 25, 23) ]

let test_critical_path () =
  let cfg = Latency.cheap in
  let body = { Expr.lets = []; result = E.(acc "a" [ 0 ] +% (acc "a" [ 1 ] *% acc "a" [ 2 ])) } in
  Alcotest.(check int) "add(mul)" 2 (Latency.critical_path cfg body);
  let with_lets =
    {
      Expr.lets = [ ("t", E.(acc "a" [ 0 ] +% acc "a" [ 1 ])) ];
      result = E.(var "t" *% var "t");
    }
  in
  (* The let is computed once: depth = add + mul, not doubled. *)
  Alcotest.(check int) "shared let" 2 (Latency.critical_path cfg with_lets);
  let deep = { Expr.lets = []; result = E.(sqrt_ (acc "a" [ 0 ] /% acc "a" [ 1 ])) } in
  Alcotest.(check int) "configured latencies"
    (Latency.default.Latency.sqrt + Latency.default.Latency.div)
    (Latency.critical_path Latency.default deep)

let test_delay_buffer_diamond () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  let analysis = Delay_buffer.analyze ~config:Latency.cheap p in
  (* b's latency = init (2*span + 1 - 1 elements) + compute (1 add). *)
  let b_info = Delay_buffer.node_info analysis "b" in
  Alcotest.(check int) "b init" (2 * 3) b_info.Delay_buffer.init_cycles;
  Alcotest.(check int) "b compute" 1 b_info.Delay_buffer.compute_cycles;
  let skip = Delay_buffer.buffer_for analysis ~src:"a" ~dst:"c" in
  let direct = Delay_buffer.buffer_for analysis ~src:"b" ~dst:"c" in
  Alcotest.(check int) "skip edge buffers b's latency" 7 skip;
  Alcotest.(check int) "critical edge has no buffer" 0 direct;
  (* Every node has at least one zero in-edge. *)
  List.iter
    (fun (s : Stencil.t) ->
      let incoming =
        List.filter (fun ((_, dst), _) -> String.equal dst s.Stencil.name)
          analysis.Delay_buffer.edges
      in
      Alcotest.(check bool)
        (s.Stencil.name ^ " has a zero in-edge")
        true
        (List.exists (fun (_, buffer) -> buffer = 0) incoming))
    p.Program.stencils

let test_program_latency_chain () =
  let p = Fixtures.chain ~shape:[ 6; 10 ] ~n:3 () in
  let analysis = Delay_buffer.analyze ~config:Latency.cheap p in
  (* Each chain stage: init = 2*I + 1 - 1 = 20 cycles, compute = depth of
     0.25*(((a+b)+c)+d): 3 adds + 1 mul = 4 cycles. Three stages. *)
  List.iter
    (fun i ->
      let info = Delay_buffer.node_info analysis (Printf.sprintf "f%d" i) in
      Alcotest.(check int) "init" 20 info.Delay_buffer.init_cycles;
      Alcotest.(check int) "compute" 4 info.Delay_buffer.compute_cycles)
    [ 1; 2; 3 ];
  Alcotest.(check int) "L = 3 * 24" 72 analysis.Delay_buffer.latency_cycles

let test_vectorization_shrinks_latency () =
  let p1 = Fixtures.chain ~shape:[ 8; 32 ] ~n:4 ~vector_width:1 () in
  let p4 = Fixtures.chain ~shape:[ 8; 32 ] ~n:4 ~vector_width:4 () in
  let a1 = Delay_buffer.analyze ~config:Latency.cheap p1 in
  let a4 = Delay_buffer.analyze ~config:Latency.cheap p4 in
  Alcotest.(check bool) "vectorized latency is smaller" true
    (a4.Delay_buffer.latency_cycles < a1.Delay_buffer.latency_cycles)

let test_schedule_timing () =
  (* The derived schedule: in the diamond, c cannot take its first step
     before b's first output emerges; every stencil's first output is
     start + init + compute, and L is the maximum. *)
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  let a = Delay_buffer.analyze ~config:Latency.cheap p in
  Alcotest.(check int) "a starts immediately" 0 (Delay_buffer.start_cycle a "a");
  Alcotest.(check int) "a output" 1 (Delay_buffer.output_cycle a "a");
  Alcotest.(check int) "b starts when a produces" 1 (Delay_buffer.start_cycle a "b");
  Alcotest.(check int) "b output" 8 (Delay_buffer.output_cycle a "b");
  Alcotest.(check int) "c waits for b" 8 (Delay_buffer.start_cycle a "c");
  Alcotest.(check int) "c output" 9 (Delay_buffer.output_cycle a "c");
  Alcotest.(check int) "L is the last output" 9 a.Delay_buffer.latency_cycles;
  (* Structural invariants hold for every stencil. *)
  List.iter
    (fun (s : Stencil.t) ->
      let info = Delay_buffer.node_info a s.Stencil.name in
      Alcotest.(check int) "out = start + init + compute"
        (Delay_buffer.start_cycle a s.Stencil.name
        + info.Delay_buffer.init_cycles + info.Delay_buffer.compute_cycles)
        (Delay_buffer.output_cycle a s.Stencil.name))
    p.Program.stencils

let test_runtime_model () =
  let p = Fixtures.chain ~shape:[ 6; 10 ] ~n:3 () in
  let cells = Program.cells p in
  let expected = 72 + cells in
  Alcotest.(check int) "C = L + N" expected
    (Runtime_model.expected_cycles ~config:Latency.cheap p);
  let frac = Runtime_model.initialization_fraction ~config:Latency.cheap p in
  Alcotest.(check bool) "init fraction in (0,1)" true (frac > 0. && frac < 1.)

let test_op_count_kitchen_sink () =
  let p = Fixtures.kitchen_sink ~shape:[ 4; 6; 8 ] () in
  let counts = Op_count.of_program p in
  (* Reads: u and v once each (4*6*8), crlat (6), alpha (1). *)
  Alcotest.(check int) "read elements" ((2 * 192) + 6 + 1) counts.Op_count.read_elements;
  Alcotest.(check int) "written elements" 192 counts.Op_count.written_elements;
  Alcotest.(check bool) "flops positive" true (counts.Op_count.flops_per_cell > 0);
  (* u, v stream; crlat and alpha are prefetched; one output. *)
  Alcotest.(check int) "streaming operands" 3 (Op_count.streaming_operands_per_cycle p)

let test_roofline_eqs () =
  (* Eq. 2-4 with the paper's horizontal-diffusion numbers. *)
  let ai = 65. /. 18. in
  Alcotest.(check (float 0.1)) "eq3" 210.5
    (Roofline.attainable_ops_per_s ~ai_ops_per_byte:ai ~bandwidth_bytes_per_s:58.3);
  Alcotest.(check (float 0.05)) "eq4" 254.0
    (Roofline.bandwidth_to_saturate ~compute_ops_per_s:917.1 ~ai_ops_per_byte:ai);
  Alcotest.(check (float 1e-3)) "fraction" 0.5
    (Roofline.fraction_of_roof ~measured_ops_per_s:105.25 ~ai_ops_per_byte:ai
       ~bandwidth_bytes_per_s:58.3)

let test_vectorize_legal_widths () =
  let p = Fixtures.chain ~shape:[ 8; 32 ] ~n:2 () in
  Alcotest.(check (list int)) "widths" [ 1; 2; 4; 8; 16 ] (Vectorize.legal_widths p ~max:16);
  match Vectorize.apply p 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "W=3 should be rejected for I=32"

(* Property: delay buffers are always non-negative, and every stencil has
   a zero-buffer in-edge. *)
let program_gen =
  QCheck.Gen.(
    let* n = int_range 1 5 in
    let* span = int_range 0 2 in
    let* shape_i = oneofl [ 8; 12; 16 ] in
    return (Fixtures.chain ~shape:[ 4; shape_i ] ~n (), span))

let prop_delay_nonnegative =
  QCheck.Test.make ~count:50 ~name:"delay buffers non-negative with a zero in-edge"
    (QCheck.make program_gen) (fun (p, _) ->
      let a = Delay_buffer.analyze p in
      List.for_all (fun (_, b) -> b >= 0) a.Delay_buffer.edges
      && List.for_all
           (fun (s : Stencil.t) ->
             List.exists
               (fun ((_, dst), b) -> String.equal dst s.Stencil.name && b = 0)
               a.Delay_buffer.edges)
           p.Program.stencils)

let arbitrary_programs =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Program.pp p)
    (QCheck.Gen.oneof [ Program_gen.program_gen; Program_gen.adversarial_program_gen ])

(* Each lookup reads the table [analyze] builds, and answers as
   [List.assoc] on the record's lists: the same value, or [Not_found]. *)
let prop_delay_lookups_match_lists =
  QCheck.Test.make ~count:200 ~name:"delay-buffer lookups equal List.assoc"
    arbitrary_programs (fun p ->
      let a = Delay_buffer.analyze p in
      let same lookup assoc key =
        let answer f = match f key with v -> Some v | exception Not_found -> None in
        answer lookup = answer assoc
      in
      let names = "ghost" :: List.map fst a.Delay_buffer.nodes in
      let pairs =
        ("ghost", "ghost") :: List.concat_map (fun u -> List.map (fun v -> (u, v)) names) names
      in
      List.for_all
        (fun name ->
          same (Delay_buffer.node_info a) (fun n -> List.assoc n a.Delay_buffer.nodes) name
          && same (Delay_buffer.start_cycle a) (fun n -> fst (List.assoc n a.Delay_buffer.timing)) name
          && same (Delay_buffer.output_cycle a) (fun n -> snd (List.assoc n a.Delay_buffer.timing)) name)
        names
      && List.for_all
           (fun (src, dst) ->
             let assoc e = List.assoc e a.Delay_buffer.edges in
             same (fun (src, dst) -> Delay_buffer.buffer_for a ~src ~dst) assoc (src, dst))
           pairs)

(* The definition [Internal_buffer.of_stencil] had before it took the
   body's accesses once: [Stencil.accesses_of_field] per field read, each
   call interning the body again, behind a [Program.field_axes] scan. *)
let reference_of_stencil (p : Program.t) (s : Stencil.t) =
  let full_rank = Program.rank p in
  let w = p.Program.vector_width in
  List.filter_map
    (fun field ->
      if List.length (Program.field_axes p field) <> full_rank then None
      else begin
        let offsets = Stencil.accesses_of_field s field in
        let flats = List.map (Internal_buffer.flatten_offset ~shape:p.Program.shape) offsets in
        let min_flat = List.fold_left min (List.hd flats) flats in
        let max_flat = List.fold_left max (List.hd flats) flats in
        let buffered = List.length offsets > 1 in
        let size_elements = if buffered then max_flat - min_flat + w else 0 in
        let init_elements =
          if buffered then max (size_elements - 1) (max 0 max_flat) else max 0 max_flat
        in
        (* The read-ahead in whole words, and the register the backends
           declared before it was kept here: that read-ahead, one word,
           and the reach behind the center. *)
        let init_words = (init_elements + w - 1) / w in
        let register_elements = (init_words * w) + w + Int.max 0 (-min_flat) in
        Some
          {
            Internal_buffer.field;
            offsets;
            min_flat;
            max_flat;
            size_elements;
            init_elements;
            init_words;
            register_elements;
          }
      end)
    (Stencil.input_fields s)

let prop_internal_buffers_match_reference =
  QCheck.Test.make ~count:300 ~name:"internal buffers equal their old definition"
    arbitrary_programs (fun p ->
      List.for_all
        (fun s -> Internal_buffer.of_accesses p (Stencil.accesses s) = reference_of_stencil p s)
        p.Program.stencils)

(* The definition [Delay_buffer.analyze] had before it read the check's
   facts: its own dependency graph over [Stencil.input_fields], its own
   topological sort, and the internal buffers of every body walked again
   ([reference_of_stencil], which the property above equates with the
   library's). *)
let reference_analyze ~config (p : Program.t) =
  let module G = Fixtures.G in
  let g = Fixtures.graph p in
  let w = max 1 p.Program.vector_width in
  let full_rank = Program.rank p in
  let info = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Hashtbl.replace info f.Field.name
        { Delay_buffer.init_cycles = 0; compute_cycles = 0; buffers = [] })
    p.Program.inputs;
  List.iter
    (fun s ->
      let buffers = reference_of_stencil p s in
      let delay =
        List.fold_left (fun acc (b : Internal_buffer.t) -> max acc b.init_elements) 0 buffers
      in
      Hashtbl.replace info s.Stencil.name
        {
          Delay_buffer.init_cycles = Sf_support.Util.ceil_div delay w;
          compute_cycles = Latency.critical_path config s.Stencil.body;
          buffers;
        })
    p.Program.stencils;
  let order = match G.topological_sort g with Ok o -> o | Error _ -> assert false in
  let avail = Hashtbl.create 16 and timing = ref [] and edges = ref [] in
  List.iter
    (fun v ->
      match G.find_vertex_exn g v with
      | Program.Input _ -> Hashtbl.replace avail v 0
      | Program.Op _ ->
          let i = Hashtbl.find info v in
          let init_extra u =
            match
              List.find_opt
                (fun (b : Internal_buffer.t) -> String.equal b.field u)
                i.Delay_buffer.buffers
            with
            | Some b -> Sf_support.Util.ceil_div b.init_elements w
            | None -> 0
          in
          let annotated =
            List.filter_map
              (fun (u, ()) ->
                match G.find_vertex_exn g u with
                | Program.Input f when Field.rank f <> full_rank -> None
                | _ -> Some (u, i.Delay_buffer.init_cycles - init_extra u, Hashtbl.find avail u))
              (G.preds g v)
          in
          let t0 = List.fold_left (fun acc (_, need, av) -> max acc (av - need)) 0 annotated in
          List.iter (fun (u, need, av) -> edges := ((u, v), t0 + need - av) :: !edges) annotated;
          let out = t0 + i.Delay_buffer.init_cycles + i.Delay_buffer.compute_cycles in
          timing := (v, (t0, out)) :: !timing;
          Hashtbl.replace avail v out)
    order;
  let latency =
    List.fold_left (fun acc s -> max acc (Hashtbl.find avail s.Stencil.name)) 0 p.Program.stencils
  in
  let nodes = List.map (fun (v, _) -> (v, Hashtbl.find info v)) (G.vertices g) in
  (nodes, List.rev !edges, latency, List.rev !timing)

let prop_analysis_matches_reference =
  QCheck.Test.make ~count:300 ~name:"delay analysis from the check equals the old analyze"
    (QCheck.pair arbitrary_programs QCheck.bool) (fun (p, cheap) ->
      let config = if cheap then Latency.cheap else Latency.default in
      let a = Delay_buffer.of_checked ~config (Program.check_exn p) in
      let open Delay_buffer in
      (a.nodes, a.edges, a.latency_cycles, a.timing) = reference_analyze ~config p)

let suite =
  [
    Alcotest.test_case "fig 7: row buffers (2I+W)" `Quick test_fig7_rows;
    Alcotest.test_case "fig 7: slice buffers (2IJ+W)" `Quick test_fig7_slices;
    Alcotest.test_case "vector width enters buffer size" `Quick test_vector_width_term;
    Alcotest.test_case "intermediate accesses don't grow buffers" `Quick
      test_intermediate_accesses_do_not_grow_buffer;
    Alcotest.test_case "single access needs no buffer" `Quick test_single_access_no_buffer;
    Alcotest.test_case "buffer fill scheduling" `Quick test_fill_step;
    Alcotest.test_case "AST critical path" `Quick test_critical_path;
    Alcotest.test_case "diamond delay buffers (fig 4/8)" `Quick test_delay_buffer_diamond;
    Alcotest.test_case "chain latency accumulates" `Quick test_program_latency_chain;
    Alcotest.test_case "vectorization shrinks latency" `Quick test_vectorization_shrinks_latency;
    Alcotest.test_case "derived schedule timing" `Quick test_schedule_timing;
    Alcotest.test_case "runtime model C = L + N (eq 1)" `Quick test_runtime_model;
    Alcotest.test_case "op and operand counting" `Quick test_op_count_kitchen_sink;
    Alcotest.test_case "roofline equations 2-4" `Quick test_roofline_eqs;
    Alcotest.test_case "legal vector widths" `Quick test_vectorize_legal_widths;
    QCheck_alcotest.to_alcotest prop_delay_nonnegative;
    QCheck_alcotest.to_alcotest prop_delay_lookups_match_lists;
    QCheck_alcotest.to_alcotest prop_internal_buffers_match_reference;
    QCheck_alcotest.to_alcotest prop_analysis_matches_reference;
  ]
