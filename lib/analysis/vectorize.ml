open Sf_ir

let apply p w =
  let p = Program.with_vector_width p w in
  ignore (Program.check_exn p);
  p

let legal_widths (p : Program.t) ~max =
  let innermost = List.nth p.Program.shape (Program.rank p - 1) in
  let rec widths w acc = if w > max then List.rev acc
    else widths (w * 2) (if innermost mod w = 0 then w :: acc else acc)
  in
  widths 1 []
