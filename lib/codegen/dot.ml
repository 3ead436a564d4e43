open Sf_ir

let of_program ?(with_buffers = true) (p : Program.t) =
  let checked = Program.check_exn p in
  let analysis =
    if with_buffers then Some (Sf_analysis.Delay_buffer.of_checked checked) else None
  in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph %S {\n  rankdir=TB;\n" p.Program.name;
  List.iter
    (fun (f : Field.t) -> add "  %S [shape=box, style=filled, fillcolor=lightgrey];\n" f.Field.name)
    p.Program.inputs;
  List.iter
    (fun (s : Stencil.t) ->
      let shape_attr =
        if List.exists (String.equal s.Stencil.name) p.Program.outputs then
          ", peripheries=2"
        else ""
      in
      add "  %S [shape=ellipse%s];\n" s.Stencil.name shape_attr)
    p.Program.stencils;
  (* Edges by producer, inputs first, each to its consumers in program
     order. *)
  let edge src dst =
    match analysis with
    | Some a -> (
        (* Lower-dimensional inputs are prefetched, not streamed: they
           have no delay-buffer edge. *)
        match Sf_analysis.Delay_buffer.buffer_for a ~src ~dst with
        | depth when depth > 0 -> add "  %S -> %S [label=\"%d\"];\n" src dst depth
        | _ -> add "  %S -> %S;\n" src dst
        | exception Not_found -> add "  %S -> %S [style=dashed];\n" src dst)
    | None -> add "  %S -> %S;\n" src dst
  in
  List.iter
    (fun src -> List.iter (edge src) (Program.Checked.consumers checked src))
    (List.map (fun f -> f.Field.name) p.Program.inputs
    @ List.map (fun s -> s.Stencil.name) p.Program.stencils);
  add "}\n";
  Buffer.contents buf

let of_sdfg (sdfg : Sf_sdfg.Sdfg.t) =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph %S {\n  compound=true;\n  rankdir=TB;\n" sdfg.Sf_sdfg.Sdfg.name;
  let counter = ref 0 in
  let fresh () =
    incr counter;
    !counter
  in
  (* Each graph gets its own namespace of node ids. *)
  let rec emit_graph prefix (g : Sf_sdfg.Sdfg.graph) =
    List.iter
      (fun (id, node) ->
        let nid = Printf.sprintf "%s_%d" prefix id in
        match node with
        | Sf_sdfg.Sdfg.Access name -> add "  %s [shape=oval, label=%S];\n" nid name
        | Sf_sdfg.Sdfg.Tasklet { label; _ } -> add "  %s [shape=octagon, label=%S];\n" nid label
        | Sf_sdfg.Sdfg.Stencil_node { stencil = s; _ } ->
            add "  %s [shape=doubleoctagon, label=%S];\n" nid s.Sf_ir.Stencil.name
        | Sf_sdfg.Sdfg.Pipeline { label; init_cycles; drain_cycles; body; _ } ->
            let cluster = fresh () in
            add "  subgraph cluster_%d {\n  label=\"%s (init %d, drain %d)\";\n" cluster label
              init_cycles drain_cycles;
            emit_graph (Printf.sprintf "%s_%d" prefix id) body;
            add "  }\n";
            add "  %s [shape=point, style=invis];\n" nid
        | Sf_sdfg.Sdfg.Unrolled_map { label; width; body } ->
            let cluster = fresh () in
            add "  subgraph cluster_%d {\n  label=\"%s (unroll %d)\";\n" cluster label width;
            emit_graph (Printf.sprintf "%s_%d" prefix id) body;
            add "  }\n";
            add "  %s [shape=point, style=invis];\n" nid)
      g.Sf_sdfg.Sdfg.nodes;
    List.iter
      (fun (e : Sf_sdfg.Sdfg.edge) ->
        add "  %s_%d -> %s_%d [label=%S];\n" prefix e.Sf_sdfg.Sdfg.src prefix
          e.Sf_sdfg.Sdfg.dst e.Sf_sdfg.Sdfg.data)
      g.Sf_sdfg.Sdfg.edges
  in
  List.iteri
    (fun i (st : Sf_sdfg.Sdfg.state) ->
      let cluster = fresh () in
      add "  subgraph cluster_%d {\n  label=%S;\n" cluster st.Sf_sdfg.Sdfg.slabel;
      emit_graph (Printf.sprintf "s%d" i) st.Sf_sdfg.Sdfg.body;
      add "  }\n")
    sdfg.Sf_sdfg.Sdfg.states;
  add "}\n";
  Buffer.contents buf
