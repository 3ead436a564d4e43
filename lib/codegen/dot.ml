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
