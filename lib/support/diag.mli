(** Structured diagnostics for the whole toolchain.

    Every layer reports failures as values of {!t} instead of ad-hoc
    string exceptions: a severity, a stable error code (the table below),
    an optional source span, a message, and attached notes. Fallible
    entry points follow the [('a, t list) result] idiom throughout; the
    few remaining [_exn] entry points (e.g. [Engine.run_exn]) are
    conveniences for infallible-by-construction call sites, not a
    parallel API surface.

    {2 Stable diagnostic codes}

    Codes are grouped by layer; the hundreds digit pair is the layer and
    also determines the process exit code of the CLI (see {!exit_code}):

    {v
      SF01xx  DSL frontend (lexer SF0101, parser SF0102)        exit 2
      SF02xx  JSON frontend (parse SF0201, type SF0202,
              format SF0203, io SF0204)                         exit 2
      SF03xx  program validation SF0301, transformation SF0302  exit 3
      SF04xx  analysis invariants (delay-buffer slack SF0401)   exit 4
      SF05xx  mapping (partition SF0501, partition invariant
              SF0502, fallback warning SF0503)                  exit 5
      SF06xx  code generation SF0601                            exit 6
      SF07xx  simulation (deadlock SF0701, mismatch SF0702,
              timeout SF0703, invalid config SF0704)            exit 7
      SF08xx  optimization-pass verification SF0801             exit 8
      SF09xx  internal errors SF0901, cancelled SF0902,
              overload SF0903, deadline SF0904, serve
              internal SF0905                                   exit 9
    v} *)

type severity = Error | Warning | Note

type span = {
  file : string option;
  line : int;  (** 1-based; 0 when only the file is known. *)
  col : int;  (** 1-based; 0 when only the file is known. *)
}

type t = {
  severity : severity;
  code : string;  (** Stable code from the table above. *)
  span : span option;
  message : string;
  notes : string list;
}

(** The stable code table (see the module docstring). *)
module Code : sig
  val lex : string
  val syntax : string
  val json_parse : string
  val json_type : string
  val format : string
  val io : string
  val validation : string
  val transform : string
  val analysis_invariant : string
  val partition : string
  val partition_invariant : string
  val partition_fallback : string
  val codegen : string
  val sim_deadlock : string
  val sim_mismatch : string
  val sim_timeout : string
  val sim_config : string
  val pass_verification : string

  val internal : string
  (** [SF0901] — escaped exception. *)

  val cancelled : string
  (** [SF0902] — request cancelled at a pass boundary (serve [cancel]
      verb); the pipeline stops cleanly, nothing is cached. *)

  val overload : string
  (** [SF0903] — serve admission queue full; the request was rejected
      without executing (resubmit later or raise [--queue-depth]). *)

  val deadline : string
  (** [SF0904] — request deadline exceeded at a pass boundary
      ([deadline_ms] request field or [--deadline-ms] default). Passes
      completed before the deadline stay cached; only the remaining
      suffix is abandoned. *)

  val serve_internal : string
  (** [SF0905] — an exception escaped a serve worker while executing a
      request. The crash is isolated: the request is answered with this
      diag (backtrace attached as a note) and the pool keeps serving. *)
end

val span : ?file:string -> line:int -> col:int -> unit -> span
val file_span : string -> span

val make :
  ?span:span -> ?notes:string list -> severity:severity -> code:string -> string -> t

val error : ?span:span -> ?notes:string list -> code:string -> string -> t
val warning : ?span:span -> ?notes:string list -> code:string -> string -> t
val note : ?span:span -> code:string -> string -> t

val errorf :
  ?span:span ->
  ?notes:string list ->
  code:string ->
  ('a, unit, string, t) format4 ->
  'a

val warningf :
  ?span:span ->
  ?notes:string list ->
  code:string ->
  ('a, unit, string, t) format4 ->
  'a

val with_file : string -> t -> t
(** Attach a file name: fills the span's [file] when a span is present,
    or adds a file-only span otherwise. *)

val add_note : string -> t -> t

val is_error : t -> bool
val has_errors : t list -> bool
val errors : t list -> t list
val warnings : t list -> t list

val severity_name : severity -> string
val span_to_string : span -> string

val pp : Format.formatter -> t -> unit
(** [file:line:col: error[SF0102]: message] followed by indented
    [note: ...] lines. *)

val to_string : t -> string

val to_json : t -> Json.t
val list_to_json : t list -> Json.t
(** [{"diagnostics": [...]}] — the CLI's machine-readable format. *)

val exit_code : t list -> int
(** Stable process exit code for a diagnostic set: 0 when no error is
    present, otherwise the layer code of the first error (table above);
    unknown codes map to 1. *)
