(* Shared example programs used across test suites. *)
open Sf_ir
module E = Builder.E

(* Unwrap the diagnostics-returning APIs; tests treat failure as fatal. *)
let ok = function
  | Ok v -> v
  | Error ds ->
      failwith (String.concat "; " (List.map Sf_support.Diag.to_string ds))

let ok1 = function Ok v -> v | Error d -> failwith (Sf_support.Diag.to_string d)

(* A hand placement of [p]'s stencils over [devices] devices, each with
   no resource usage. *)
let partition ~devices p device_of =
  ok1
    (Sf_mapping.Partition.make (Sf_ir.Program.check_exn p) ~device_of
       ~per_device_usage:(List.init devices (fun _ -> Sf_models.Resource.zero)))

(* The shipped example programs. Tests normally run from
   _build/default/test; [dune exec] and a direct run of the test binary
   run from the checkout root. *)
let examples_dir =
  lazy
    (match List.find_opt Sys.file_exists [ "../examples/programs"; "examples/programs" ] with
    | Some dir -> dir
    | None -> failwith "cannot locate examples/programs")

let example_path name = Filename.concat (Lazy.force examples_dir) name

(* The dependency DAG: an edge [u -> v] for every field [u] that stencil
   [v] reads, built from the bodies alone. Reference definitions in the
   tests use it; the library derives it once, in [Program.check]. *)
module G = Sf_support.Dgraph.Make (String)

let graph (p : Program.t) =
  let g =
    List.fold_left
      (fun g f -> G.add_vertex g f.Field.name (Program.Input f))
      G.empty p.Program.inputs
  in
  let g =
    List.fold_left (fun g s -> G.add_vertex g s.Stencil.name (Program.Op s)) g p.Program.stencils
  in
  List.fold_left
    (fun g s ->
      List.fold_left
        (fun g src -> if G.mem_vertex g src then G.add_edge g ~src ~dst:s.Stencil.name () else g)
        g (Stencil.input_fields s))
    g p.Program.stencils

(* 2D Laplace operator (Fig. 9): one stencil, four neighbour accesses. *)
let laplace2d ?(shape = [ 8; 8 ]) ?(vector_width = 1) () =
  let b = Builder.create ~vector_width ~name:"laplace2d" ~shape () in
  Builder.input b "a";
  Builder.stencil b
    ~boundary:[ ("a", Boundary.Constant 0.) ]
    "lap"
    E.(
      acc "a" [ 0; -1 ] +% acc "a" [ 0; 1 ] +% acc "a" [ -1; 0 ] +% acc "a" [ 1; 0 ]
      -% (c 4. *% acc "a" [ 0; 0 ]));
  Builder.output b "lap";
  Builder.finish b

(* The diamond of Fig. 4: c needs a directly and through b; the skip edge
   a -> c needs a delay buffer covering b's latency. [span] widens b's
   internal buffer to make that latency substantial. *)
let diamond ?(shape = [ 8; 16 ]) ?(span = 3) () =
  let b = Builder.create ~name:"diamond" ~shape () in
  Builder.input b "x";
  Builder.stencil b "a" E.(acc "x" [ 0; 0 ] *% c 2.);
  Builder.stencil b
    ~boundary:[ ("a", Boundary.Constant 0.) ]
    "b"
    E.(acc "a" [ 0; -span ] +% acc "a" [ 0; span ]);
  Builder.stencil b "c" E.(acc "a" [ 0; 0 ] +% acc "b" [ 0; 0 ]);
  Builder.output b "c";
  Builder.finish b

(* The diamond with a skewed inner stencil and a skip input: [b] reads
   [a] two rows and columns away on either side, and [c] reads [a], [b]
   and the input [x], so the a->c edge carries a delay buffer that fills
   before [c] starts popping it. *)
let skewed_diamond ?(shape = [ 5; 8 ]) () =
  let b = Builder.create ~name:"skewed_diamond" ~shape () in
  Builder.input b "x";
  Builder.stencil b "a" E.(acc "x" [ 0; 0 ] *% c 2.);
  Builder.stencil b
    ~boundary:[ ("a", Boundary.Constant 0.) ]
    "b"
    E.(acc "a" [ -2; -2 ] +% acc "a" [ 2; 2 ]);
  Builder.stencil b "c" E.(acc "a" [ 0; 0 ] +% acc "b" [ 0; 0 ] +% acc "x" [ 0; 0 ]);
  Builder.output b "c";
  Builder.finish b

(* A linear chain of [n] dependent Jacobi-style stencils (Sec. VIII-C). *)
let chain ?(shape = [ 6; 10 ]) ?(n = 4) ?(vector_width = 1) () =
  let b = Builder.create ~vector_width ~name:"chain" ~shape () in
  Builder.input b "f0";
  let prev = ref "f0" in
  for i = 1 to n do
    let name = Printf.sprintf "f%d" i in
    Builder.stencil b
      ~boundary:[ (!prev, Boundary.Constant 0.) ]
      name
      E.(
        c 0.25
        *% (acc !prev [ 0; -1 ] +% acc !prev [ 0; 1 ] +% acc !prev [ -1; 0 ]
           +% acc !prev [ 1; 0 ]));
    prev := name
  done;
  Builder.output b !prev;
  Builder.finish b

(* A program exercising every boundary condition, a scalar input, a
   lower-dimensional (per-row) input, lets, and a data-dependent branch. *)
let kitchen_sink ?(shape = [ 4; 6; 8 ]) ?(vector_width = 1) () =
  let b = Builder.create ~vector_width ~name:"kitchen_sink" ~shape () in
  Builder.input b "u";
  Builder.input b "v";
  Builder.input b ~axes:[ 1 ] "crlat";
  Builder.input b ~axes:[] "alpha";
  Builder.stencil b
    ~boundary:[ ("u", Boundary.Copy); ("v", Boundary.Constant 1.) ]
    ~lets:[ ("t", E.(acc "u" [ 0; 0; -1 ] +% acc "u" [ 0; 0; 1 ] -% (c 2. *% acc "u" [ 0; 0; 0 ]))) ]
    "lap"
    E.(var "t" *% acc "crlat" [ 0 ] +% (acc "v" [ 0; -1; 0 ] *% sc "alpha"));
  Builder.stencil b
    ~boundary:[ ("lap", Boundary.Constant 0.) ]
    "flux"
    E.(
      sel
        (acc "lap" [ 0; 0; 1 ] -% acc "lap" [ 0; 0; 0 ] >% c 0.)
        (min_ (acc "lap" [ 0; 0; 0 ]) (acc "lap" [ 0; 0; 1 ]))
        (max_ (acc "lap" [ 0; 0; 0 ]) (acc "lap" [ 0; 0; 1 ])));
  Builder.stencil b ~shrink:true
    ~boundary:[ ("flux", Boundary.Constant 0.) ]
    "out"
    E.(acc "u" [ 0; 0; 0 ] -% (sc "alpha" *% (acc "flux" [ 0; 0; 0 ] -% acc "flux" [ 0; 0; -1 ])));
  Builder.output b "out";
  Builder.finish b

(* Multiple outputs sharing inputs: a fork whose two results are both
   written to memory. *)
let fork ?(shape = [ 8; 8 ]) () =
  let b = Builder.create ~name:"fork" ~shape () in
  Builder.input b "a";
  Builder.stencil b "left" E.(acc "a" [ 0; 0 ] +% c 1.);
  Builder.stencil b
    ~boundary:[ ("a", Boundary.Constant 0.) ]
    "right"
    E.(acc "a" [ -1; 0 ] *% acc "a" [ 1; 0 ]);
  Builder.stencil b "join" E.(acc "left" [ 0; 0 ] +% acc "right" [ 0; 0 ]);
  Builder.output b "left";
  Builder.output b "join";
  Builder.finish b
