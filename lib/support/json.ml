type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
exception Type_error of string

type error = { line : int; col : int; reason : string }

(* Internal: carries the structured position to the [parse] boundary;
   [of_string] re-raises it as the historical [Parse_error]. *)
exception Located_error of error

(* Parsing state: a cursor over the input string that tracks line and
   column for error messages. *)
type state = { src : string; mutable pos : int; mutable line : int; mutable col : int }

let fail st msg = raise (Located_error { line = st.line; col = st.col; reason = msg })

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | Some '/' when st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = '/' ->
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %c but found %c" c c')
  | None -> fail st (Printf.sprintf "expected %c but reached end of input" c)

let parse_keyword st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    for _ = 1 to n do
      advance st
    done;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let is_digit c = c >= '0' && c <= '9'

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume_digits () =
    let rec go () =
      match peek st with
      | Some c when is_digit c ->
          advance st;
          go ()
      | Some _ | None -> ()
    in
    go ()
  in
  (match peek st with Some '-' -> advance st | Some _ | None -> ());
  consume_digits ();
  (match peek st with
  | Some '.' ->
      is_float := true;
      advance st;
      consume_digits ()
  | Some _ | None -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      is_float := true;
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | Some _ | None -> ());
      consume_digits ()
  | Some _ | None -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st (Printf.sprintf "malformed number %s" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* Integers beyond native range degrade to float. *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail st (Printf.sprintf "malformed number %s" text))

let parse_string_literal st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                (* Decode \uXXXX as UTF-8; surrogate pairs are not needed by
                   the program format, so a lone code point suffices. *)
                let hex = Buffer.create 4 in
                for _ = 1 to 4 do
                  match peek st with
                  | Some h ->
                      Buffer.add_char hex h;
                      advance st
                  | None -> fail st "truncated unicode escape"
                done;
                let code =
                  match int_of_string_opt ("0x" ^ Buffer.contents hex) with
                  | Some c -> c
                  | None -> fail st "malformed unicode escape"
                in
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> fail st (Printf.sprintf "invalid escape \\%c" c));
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> String (parse_string_literal st)
  | Some 't' -> parse_keyword st "true" (Bool true)
  | Some 'f' -> parse_keyword st "false" (Bool false)
  | Some 'n' -> parse_keyword st "null" Null
  | Some c when is_digit c || c = '-' -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %c" c)

and parse_obj st =
  expect st '{';
  skip_ws st;
  match peek st with
  | Some '}' ->
      advance st;
      Obj []
  | Some _ | None ->
      let rec members acc =
        skip_ws st;
        let key = parse_string_literal st in
        skip_ws st;
        expect st ':';
        let value = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
            advance st;
            members ((key, value) :: acc)
        | Some '}' ->
            advance st;
            Obj (List.rev ((key, value) :: acc))
        | Some c -> fail st (Printf.sprintf "expected , or } but found %c" c)
        | None -> fail st "unterminated object"
      in
      members []

and parse_list st =
  expect st '[';
  skip_ws st;
  match peek st with
  | Some ']' ->
      advance st;
      List []
  | Some _ | None ->
      let rec elements acc =
        let value = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
            advance st;
            elements (value :: acc)
        | Some ']' ->
            advance st;
            List (List.rev (value :: acc))
        | Some c -> fail st (Printf.sprintf "expected , or ] but found %c" c)
        | None -> fail st "unterminated list"
      in
      elements []

let parse src =
  match
    let st = { src; pos = 0; line = 1; col = 1 } in
    let v = parse_value st in
    skip_ws st;
    match peek st with
    | None -> v
    | Some c -> fail st (Printf.sprintf "trailing content starting with %c" c)
  with
  | v -> Ok v
  | exception Located_error e -> Error e

let error_to_string (e : error) =
  Printf.sprintf "line %d, column %d: %s" e.line e.col e.reason

let of_string src =
  match parse src with Ok v -> v | Error e -> raise (Parse_error (error_to_string e))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

let parse_file path =
  match read_file path with
  | src -> parse src
  | exception Sys_error m -> Error { line = 0; col = 0; reason = m }

let of_file path = of_string (read_file path)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_to_json_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string ?(minify = false) json =
  let buf = Buffer.create 256 in
  let newline indent =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ')
    end
  in
  let rec emit indent json =
    match json with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_to_json_string f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            newline (indent + 2);
            emit (indent + 2) item)
          items;
        newline indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (key, value) ->
            if i > 0 then Buffer.add_char buf ',';
            newline (indent + 2);
            Buffer.add_string buf (escape_string key);
            Buffer.add_char buf ':';
            if not minify then Buffer.add_char buf ' ';
            emit (indent + 2) value)
          members;
        newline indent;
        Buffer.add_char buf '}'
  in
  emit 0 json;
  Buffer.contents buf

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "list"
  | Obj _ -> "object"

let member key = function Obj members -> List.assoc_opt key members | _ -> None

let member_exn key json =
  match member key json with
  | Some v -> v
  | None -> raise (Type_error (Printf.sprintf "missing key %S in %s" key (type_name json)))

let get_string = function
  | String s -> s
  | j -> raise (Type_error ("expected string, found " ^ type_name j))

let get_int = function
  | Int i -> i
  | j -> raise (Type_error ("expected int, found " ^ type_name j))

let get_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | j -> raise (Type_error ("expected number, found " ^ type_name j))

let get_bool = function
  | Bool b -> b
  | j -> raise (Type_error ("expected bool, found " ^ type_name j))

let get_list = function
  | List items -> items
  | j -> raise (Type_error ("expected list, found " ^ type_name j))

let get_obj = function
  | Obj members -> members
  | j -> raise (Type_error ("expected object, found " ^ type_name j))

let string_opt = function String s -> Some s | _ -> None
let int_opt = function Int i -> Some i | _ -> None

let float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b || (Float.is_nan a && Float.is_nan b)
  | Int a, Float b | Float b, Int a -> float_of_int a = b
  | String a, String b -> String.equal a b
  | List a, List b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
      List.length a = List.length b
      && List.for_all2 (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb) a b
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Obj _), _ -> false

let pp fmt json = Format.pp_print_string fmt (to_string json)
