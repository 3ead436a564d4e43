type severity = Error | Warning | Note

type span = { file : string option; line : int; col : int }

type t = {
  severity : severity;
  code : string;
  span : span option;
  message : string;
  notes : string list;
}

module Code = struct
  let lex = "SF0101"
  let syntax = "SF0102"
  let json_parse = "SF0201"
  let json_type = "SF0202"
  let format = "SF0203"
  let io = "SF0204"
  let validation = "SF0301"
  let transform = "SF0302"
  let analysis_invariant = "SF0401"
  let partition = "SF0501"
  let partition_invariant = "SF0502"
  let partition_fallback = "SF0503"
  let codegen = "SF0601"
  let sim_deadlock = "SF0701"
  let sim_mismatch = "SF0702"
  let sim_timeout = "SF0703"
  let sim_config = "SF0704"
  let pass_verification = "SF0801"
  let internal = "SF0901"
  let cancelled = "SF0902"
  let overload = "SF0903"
  let deadline = "SF0904"
  let serve_internal = "SF0905"
end

let span ?file ~line ~col () = { file; line; col }
let file_span file = { file = Some file; line = 0; col = 0 }

let make ?span ?(notes = []) ~severity ~code message =
  { severity; code; span; message; notes }

let error ?span ?notes ~code message = make ?span ?notes ~severity:Error ~code message
let warning ?span ?notes ~code message = make ?span ?notes ~severity:Warning ~code message
let note ?span ~code message = make ?span ~severity:Note ~code message

let errorf ?span ?notes ~code fmt =
  Printf.ksprintf (fun m -> error ?span ?notes ~code m) fmt

let warningf ?span ?notes ~code fmt =
  Printf.ksprintf (fun m -> warning ?span ?notes ~code m) fmt

let with_file file d =
  match d.span with
  | Some s -> { d with span = Some { s with file = Some file } }
  | None -> { d with span = Some (file_span file) }

let add_note n d = { d with notes = d.notes @ [ n ] }

let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds
let errors ds = List.filter is_error ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds

let severity_name = function Error -> "error" | Warning -> "warning" | Note -> "note"

let span_to_string s =
  let file = match s.file with Some f -> f | None -> "" in
  if s.line <= 0 then file
  else if file = "" then Printf.sprintf "line %d, column %d" s.line s.col
  else Printf.sprintf "%s:%d:%d" file s.line s.col

let pp fmt d =
  (match d.span with
  | Some s ->
      let loc = span_to_string s in
      if loc <> "" then Format.fprintf fmt "%s: " loc
  | None -> ());
  Format.fprintf fmt "%s[%s]: %s" (severity_name d.severity) d.code d.message;
  List.iter (fun n -> Format.fprintf fmt "@.  note: %s" n) d.notes

let to_string d = Format.asprintf "%a" pp d

let to_json d =
  let span_json s =
    Json.Obj
      ((match s.file with Some f -> [ ("file", Json.String f) ] | None -> [])
      @ (if s.line > 0 then [ ("line", Json.Int s.line); ("col", Json.Int s.col) ] else []))
  in
  Json.Obj
    ([
       ("severity", Json.String (severity_name d.severity));
       ("code", Json.String d.code);
     ]
    @ (match d.span with Some s -> [ ("span", span_json s) ] | None -> [])
    @ [ ("message", Json.String d.message) ]
    @
    if d.notes = [] then []
    else [ ("notes", Json.List (List.map (fun n -> Json.String n) d.notes)) ])

let list_to_json ds = Json.Obj [ ("diagnostics", Json.List (List.map to_json ds)) ]

(* Exit codes are stable per layer: the first error's code selects the
   layer (see the .mli table). *)
let layer_exit code =
  if String.length code >= 4 then
    match String.sub code 0 4 with
    | "SF01" | "SF02" -> 2
    | "SF03" -> 3
    | "SF04" -> 4
    | "SF05" -> 5
    | "SF06" -> 6
    | "SF07" -> 7
    | "SF08" -> 8
    | "SF09" -> 9
    | _ -> 1
  else 1

let exit_code ds =
  match errors ds with [] -> 0 | d :: _ -> layer_exit d.code
