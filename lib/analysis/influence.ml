open Sf_ir

let radius (p : Program.t) =
  let checked = Program.check_exn p in
  let rank = Program.rank p in
  let reach : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace reach f.Field.name (Array.make rank 0)) p.Program.inputs;
  List.iter
    (fun (s : Stencil.t) ->
      let r = Array.make rank 0 in
      List.iter
        (fun (field, offsets) ->
          let upstream =
            match Hashtbl.find_opt reach field with
            | Some u -> u
            | None -> Array.make rank 0
          in
          let axes = Program.Checked.axes checked field in
          let per_axis = Array.make rank 0 in
          List.iteri (fun i axis -> per_axis.(axis) <- abs (List.nth offsets i)) axes;
          for a = 0 to rank - 1 do
            r.(a) <- max r.(a) (upstream.(a) + per_axis.(a))
          done)
        (Program.Checked.accesses checked s.Stencil.name);
      Hashtbl.replace reach s.Stencil.name r)
    (Program.Checked.order checked);
  let total = Array.make rank 0 in
  List.iter
    (fun o ->
      let r = Hashtbl.find reach o in
      for a = 0 to rank - 1 do
        total.(a) <- max total.(a) r.(a)
      done)
    p.Program.outputs;
  Array.to_list total

let max_radius p = List.fold_left max 0 (radius p)
