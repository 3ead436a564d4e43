(** Minimal self-contained JSON parser and printer.

    StencilFlow program descriptions are JSON documents (paper, Sec. II).
    This module implements the subset of JSON needed for that format: all
    value forms, [//]-style line comments (an extension used by the example
    programs), and precise error positions. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a message containing line and column. *)

type error = { line : int; col : int; reason : string }
(** A structured parse failure. [line]/[col] are 1-based; both are [0]
    when the input could not be read at all (I/O failure). *)

val parse : string -> (t, error) result
(** Parse a JSON document, reporting failures as values. *)

val parse_file : string -> (t, error) result
(** Like {!parse}; I/O failures map to an [error] with [line = 0]. *)

val error_to_string : error -> string

val of_string : string -> t
(** Parse a JSON document. Raises {!Parse_error} on malformed input. *)

val of_file : string -> t
(** Parse the JSON document contained in a file. *)

val to_string : ?minify:bool -> t -> string
(** Serialize. Pretty-prints with two-space indentation unless [minify]. *)

(** {2 Accessors}

    The [get_*] functions raise {!Type_error}; the [*_opt] forms return
    [None] instead. Objects are accessed by key with {!member}. *)

exception Type_error of string

val member : string -> t -> t option
(** [member key json] is the value bound to [key] if [json] is an object. *)

val member_exn : string -> t -> t
(** Like {!member} but raises {!Type_error} when absent. *)

val get_string : t -> string
val get_int : t -> int
val get_float : t -> float
(** [get_float] accepts both [Int] and [Float] values. *)

val get_bool : t -> bool
val get_list : t -> t list
val get_obj : t -> (string * t) list

val string_opt : t -> string option
val int_opt : t -> int option
val float_opt : t -> float option

val equal : t -> t -> bool
(** Structural equality; object key order is significant. *)

val pp : Format.formatter -> t -> unit
