(** The JSON-based program description format (paper, Sec. II, Lst. 1).

    A program document looks like:
    {v
    {
      "name": "example",
      "shape": [64, 64, 64],
      "dtype": "float32",          // optional, default float32
      "vector_width": 1,           // optional, default 1
      "inputs": {
        "a":     {},                         // full-rank field
        "crlat": {"axes": [1]},              // lower-dimensional field
        "alpha": {"axes": []}                // scalar (0D)
      },
      "stencils": {
        "b": {
          "code": "b = a[0,0,1] + a[0,0,-1] + alpha;",
          "boundary": {"a": {"type": "constant", "value": 0.0}}
        },
        "c": {"code": "0.5 * (b[0,0,0] + b[0,1,0])", "shrink": true}
      },
      "outputs": ["c"]
    }
    v}

    Bare identifiers in stencil code that name scalar inputs are resolved
    to 0-offset accesses. Object member order defines stencil order. *)

val checked_of_string :
  ?file:string -> string -> (Sf_ir.Program.checked, Sf_support.Diag.t list) result

val checked_of_file : string -> (Sf_ir.Program.checked, Sf_support.Diag.t list) result
(** The checks behind {!of_string} and {!of_file}, with their failures. *)

val of_json :
  ?file:string -> Sf_support.Json.t -> (Sf_ir.Program.t, Sf_support.Diag.t list) result
(** Decode and check. Failures are structured diagnostics: decode
    problems carry code [SF0203] (or the DSL code [SF0101]/[SF0102] with
    its span for stencil-code errors), JSON type mismatches [SF0202],
    and validation failures one [SF0301] diagnostic per problem. When
    [file] is given it is attached to every diagnostic's span. *)

val of_string : ?file:string -> string -> (Sf_ir.Program.t, Sf_support.Diag.t list) result
(** {!of_json} after parsing; malformed JSON yields a located [SF0201]. *)

val of_file : string -> (Sf_ir.Program.t, Sf_support.Diag.t list) result
(** {!of_string} on a file's contents; I/O failures yield [SF0204]. *)

val to_json : Sf_ir.Program.t -> Sf_support.Json.t
(** Encode; decoding the result yields an equivalent program. *)

val to_string : Sf_ir.Program.t -> string
