open Sf_ir
module Tensor = Sf_reference.Tensor
module Interp = Sf_reference.Interp

type feedback = (string * string) list

let step_name s name = Printf.sprintf "%s_t%d" name s

let validate_feedback (p : Program.t) feedback =
  let seen_out = Hashtbl.create 8 and seen_in = Hashtbl.create 8 in
  List.iter
    (fun (o, i) ->
      if Hashtbl.mem seen_out o then invalid_arg ("Timeloop: output fed back twice: " ^ o);
      if Hashtbl.mem seen_in i then invalid_arg ("Timeloop: input fed twice: " ^ i);
      Hashtbl.add seen_out o ();
      Hashtbl.add seen_in i ();
      if not (List.exists (String.equal o) p.Program.outputs) then
        invalid_arg ("Timeloop: " ^ o ^ " is not a program output");
      match Program.find_input p i with
      | None -> invalid_arg ("Timeloop: " ^ i ^ " is not an input field")
      | Some f ->
          if not (Field.is_full_rank f ~rank:(Program.rank p)) then
            invalid_arg ("Timeloop: feedback input " ^ i ^ " must be full rank"))
    feedback

let unroll (p : Program.t) ~steps ~feedback =
  if steps < 1 then invalid_arg "Timeloop.unroll: steps must be positive";
  Program.validate_exn p;
  validate_feedback p feedback;
  let producer_of_input i = List.find_map (fun (o, i') -> if String.equal i i' then Some o else None) feedback in
  let fed_back o = List.exists (fun (o', _) -> String.equal o o') feedback in
  let rename_field s f =
    if Program.is_input p f then
      match producer_of_input f with
      | Some o when s > 1 -> step_name (s - 1) o
      | Some _ | None -> f
    else step_name s f
  in
  let unroll_stencil s (st : Stencil.t) =
    let rewrite =
      Expr.map_accesses (fun ~field ~offsets ->
          Expr.Access { field = rename_field s field; offsets })
    in
    let body =
      {
        Expr.lets = List.map (fun (n, e) -> (n, rewrite e)) st.Stencil.body.Expr.lets;
        result = rewrite st.Stencil.body.Expr.result;
      }
    in
    Stencil.make
      ~boundary:(List.map (fun (f, b) -> (rename_field s f, b)) st.Stencil.boundary)
      ~shrink:st.Stencil.shrink
      ~name:(step_name s st.Stencil.name)
      body
  in
  let stencils =
    List.concat_map
      (fun s -> List.map (unroll_stencil s) p.Program.stencils)
      (List.map (fun s -> s + 1) (Sf_support.Util.range steps))
  in
  (* Final-step outputs always write to memory; outputs of earlier steps
     that are not consumed through feedback are also written (they would
     otherwise be dead). *)
  let outputs =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun o ->
            if s = steps || not (fed_back o) then Some (step_name s o) else None)
          p.Program.outputs)
      (List.map (fun s -> s + 1) (Sf_support.Util.range steps))
  in
  let unrolled =
    Program.make ~dtype:p.Program.dtype ~vector_width:p.Program.vector_width
      ~name:(Printf.sprintf "%s_x%d" p.Program.name steps)
      ~shape:p.Program.shape ~inputs:p.Program.inputs ~outputs stencils
  in
  Program.validate_exn unrolled;
  unrolled

let final_output_names (_ : Program.t) ~steps names = List.map (step_name steps) names

let run_reference (p : Program.t) ~steps ~feedback ~inputs =
  if steps < 1 then invalid_arg "Timeloop.run_reference: steps must be positive";
  validate_feedback p feedback;
  let current = ref inputs in
  let last = ref [] in
  for _ = 1 to steps do
    let results = Interp.run p ~inputs:!current in
    last := results;
    current :=
      List.map
        (fun (name, tensor) ->
          match List.find_opt (fun (o, i) -> ignore o; String.equal i name) feedback with
          | Some (o, _) -> (name, (List.assoc o results).Interp.tensor)
          | None -> (name, tensor))
        !current
  done;
  List.map (fun (o, (r : Interp.result)) -> (o, r.Interp.tensor)) !last

let run_simulated ?config (p : Program.t) ~steps ~feedback ~inputs =
  let unrolled = unroll p ~steps ~feedback in
  match Engine.run_and_validate ?config ~inputs unrolled with
  | Error d -> Error (Sf_support.Diag.to_string d)
  | Ok stats ->
      let finals =
        List.map
          (fun o ->
            let r = List.assoc (step_name steps o) stats.Engine.results in
            (o, r.Interp.tensor))
          p.Program.outputs
      in
      Ok finals
