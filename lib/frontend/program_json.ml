module Json = Sf_support.Json
module Diag = Sf_support.Diag
open Sf_ir

(* Internal: carries the structured diagnostic to the public boundary. *)
exception Fail of Diag.t

let fail fmt =
  Printf.ksprintf (fun m -> raise (Fail (Diag.error ~code:Diag.Code.format m))) fmt

let decode_dtype json =
  let name = Json.get_string json in
  match Dtype.of_string name with
  | Some d -> d
  | None -> fail "unknown dtype %s" name

let decode_field ~full_rank ~default_dtype (name, spec) =
  let dtype =
    match Json.member "dtype" spec with Some d -> decode_dtype d | None -> default_dtype
  in
  let axes =
    match Json.member "axes" spec with
    | Some a -> Some (List.map Json.get_int (Json.get_list a))
    | None -> None
  in
  Field.make ~dtype ?axes ~name ~full_rank ()

let decode_boundary (field, spec) =
  match Json.member_exn "type" spec |> Json.get_string with
  | "constant" ->
      let value =
        match Json.member "value" spec with Some v -> Json.get_float v | None -> 0.
      in
      (field, Boundary.Constant value)
  | "copy" -> (field, Boundary.Copy)
  | other -> fail "unknown boundary condition type %s for field %s" other field

let decode_stencil ~scalar (name, spec) =
  let code =
    match Json.member "code" spec with
    | Some c -> Json.get_string c
    | None -> (
        (* "computation" is accepted as an alias for compatibility with the
           paper's examples. *)
        match Json.member "computation" spec with
        | Some c -> Json.get_string c
        | None -> fail "stencil %s: missing code" name)
  in
  let body =
    match Parser.parse_body ~output:name code with
    | Ok b -> b
    | Error d ->
        (* Keep the DSL diagnostic's own code and span; record which
           stencil's code it came from. *)
        raise (Fail (Diag.add_note (Printf.sprintf "in the code of stencil %s" name) d))
  in
  let body = Parser.resolve_body ~scalar body in
  let boundary =
    match Json.member "boundary" spec with
    | Some b -> List.map decode_boundary (Json.get_obj b)
    | None -> []
  in
  let shrink =
    match Json.member "shrink" spec with Some s -> Json.get_bool s | None -> false
  in
  Stencil.make ~boundary ~shrink ~name body

let decode json =
  let name =
    match Json.member "name" json with Some n -> Json.get_string n | None -> "unnamed"
  in
  let shape =
    match Json.member "shape" json with
    | Some s -> List.map Json.get_int (Json.get_list s)
    | None -> fail "missing shape"
  in
  let dtype =
    match Json.member "dtype" json with Some d -> decode_dtype d | None -> Dtype.F32
  in
  let vector_width =
    match Json.member "vector_width" json with Some w -> Json.get_int w | None -> 1
  in
  let full_rank = List.length shape in
  let inputs =
    match Json.member "inputs" json with
    | Some i -> List.map (decode_field ~full_rank ~default_dtype:dtype) (Json.get_obj i)
    | None -> []
  in
  let scalar v =
    List.exists (fun f -> String.equal f.Field.name v && Field.is_scalar f) inputs
  in
  let stencils =
    match Json.member "stencils" json with
    | Some s -> List.map (decode_stencil ~scalar) (Json.get_obj s)
    | None -> fail "missing stencils"
  in
  let outputs =
    match Json.member "outputs" json with
    | Some o -> List.map Json.get_string (Json.get_list o)
    | None -> fail "missing outputs"
  in
  Program.make ~dtype ~vector_width ~name ~shape ~inputs ~outputs stencils

let locate file d = match file with Some f -> Diag.with_file f d | None -> d

let checked_of_json ?file json =
  match decode json with
  | program ->
      Program.check program
      |> Result.map_error
           (List.map (fun m -> locate file (Diag.error ~code:Diag.Code.validation m)))
  | exception Fail d -> Error [ locate file d ]
  | exception Json.Type_error m ->
      Error [ locate file (Diag.error ~code:Diag.Code.json_type m) ]
  | exception Invalid_argument m ->
      Error [ locate file (Diag.error ~code:Diag.Code.format m) ]

let json_error ?file (e : Json.error) =
  if e.Json.line = 0 then Error [ locate file (Diag.error ~code:Diag.Code.io e.Json.reason) ]
  else
    Error
      [
        locate file
          (Diag.error
             ~span:(Diag.span ~line:e.Json.line ~col:e.Json.col ())
             ~code:Diag.Code.json_parse e.Json.reason);
      ]

let checked_of_string ?file s =
  match Json.parse s with Ok j -> checked_of_json ?file j | Error e -> json_error ?file e

let checked_of_file path =
  match Json.parse_file path with
  | Ok j -> checked_of_json ~file:path j
  | Error e -> json_error ~file:path e

let of_json ?file json = Result.map Program.Checked.program (checked_of_json ?file json)
let of_string ?file s = Result.map Program.Checked.program (checked_of_string ?file s)
let of_file path = Result.map Program.Checked.program (checked_of_file path)

let encode_field f =
  let members = [ ("dtype", Json.String (Dtype.name f.Field.dtype)) ] in
  let members = members @ [ ("axes", Json.List (List.map (fun a -> Json.Int a) f.Field.axes)) ] in
  (f.Field.name, Json.Obj members)

let encode_boundary (field, cond) =
  let spec =
    match cond with
    | Boundary.Constant v -> [ ("type", Json.String "constant"); ("value", Json.Float v) ]
    | Boundary.Copy -> [ ("type", Json.String "copy") ]
  in
  (field, Json.Obj spec)

let encode_stencil s =
  let body = s.Stencil.body in
  let code =
    if body.Expr.lets = [] then Expr.to_string body.Expr.result
    else
      Sf_support.Util.string_concat_map ""
        (fun (n, e) -> Printf.sprintf "%s = %s; " n (Expr.to_string e))
        body.Expr.lets
      ^ Printf.sprintf "%s = %s;" s.Stencil.name (Expr.to_string body.Expr.result)
  in
  let members = [ ("code", Json.String code) ] in
  let members =
    if s.Stencil.boundary = [] then members
    else members @ [ ("boundary", Json.Obj (List.map encode_boundary s.Stencil.boundary)) ]
  in
  let members = if s.Stencil.shrink then members @ [ ("shrink", Json.Bool true) ] else members in
  (s.Stencil.name, Json.Obj members)

let to_json (p : Program.t) =
  Json.Obj
    [
      ("name", Json.String p.name);
      ("shape", Json.List (List.map (fun e -> Json.Int e) p.shape));
      ("dtype", Json.String (Dtype.name p.dtype));
      ("vector_width", Json.Int p.vector_width);
      ("inputs", Json.Obj (List.map encode_field p.inputs));
      ("stencils", Json.Obj (List.map encode_stencil p.stencils));
      ("outputs", Json.List (List.map (fun o -> Json.String o) p.outputs));
    ]

let to_string p = Json.to_string (to_json p)
