(** Stencil programs: DAGs of stencil operations on a structured grid
    (paper, Sec. II and Fig. 2).

    Nodes are off-chip input fields and stencil operations; edges are data
    dependencies. Every stencil iterates over the same iteration space
    [shape] (1, 2 or 3 dimensions). [outputs] lists the stencil results
    that are written back to off-chip memory; intermediate results flow
    producer-to-consumer without a memory round trip (Sec. IV). *)

type node = Input of Field.t | Op of Stencil.t

type t = {
  name : string;
  shape : int list;  (** Iteration-space extents, slowest-varying first. *)
  dtype : Dtype.t;  (** Data type of stencil results. *)
  vector_width : int;  (** W of Sec. IV-C; divides the innermost extent. *)
  inputs : Field.t list;
  outputs : string list;
  stencils : Stencil.t list;
}

val make :
  ?dtype:Dtype.t ->
  ?vector_width:int ->
  name:string ->
  shape:int list ->
  inputs:Field.t list ->
  outputs:string list ->
  Stencil.t list ->
  t

val rank : t -> int
val cells : t -> int
(** Product of the iteration-space extents. *)

val strides : t -> int list
(** Row-major strides of the full iteration space; innermost is 1. *)

val find_stencil : t -> string -> Stencil.t option
val find_input : t -> string -> Field.t option
val is_input : t -> string -> bool

val field_axes : t -> string -> int list
(** Axes spanned by a named field: an input's declared axes, or all axes
    for a stencil result. Raises [Not_found] for unknown names. *)

val consumers : t -> string -> string list
(** Stencils reading a given field, in program order. *)

type checked
(** A program that passed {!check}; only a passing check makes one. *)

val check : t -> (checked, string list) result
(** The one validator: name uniqueness, access resolution, offset ranks,
    axis declarations, acyclicity, output liveness, vector width
    divisibility, and boundary-condition references. Returns all
    diagnostics, not just the first, or the facts derived ({!Checked}). *)

val check_exn : t -> checked
(** Raises [Invalid_argument] with the joined diagnostics. *)

(** What {!check} derives, for callers to read instead of working it out
    again. Lookups by name take logarithmic time. *)
module Checked : sig
  val program : checked -> t

  val order : checked -> Stencil.t list
  (** As {!topological_stencils}. *)

  val find : checked -> string -> node
  (** Raises [Not_found] for unknown names. *)

  val accesses : checked -> string -> (string * int list) list
  (** A stencil's accesses, as {!Stencil.accesses}: each [(field,
      offsets)] pair once, in order of first read. Raises [Not_found]
      for names that are not stencils. *)

  val reads : checked -> string -> string list
  (** A stencil's input fields, as {!Stencil.input_fields}: the fields
      of its {!accesses}. *)

  val axes : checked -> string -> int list
  (** As {!field_axes}. *)

  val consumers : checked -> string -> string list
  (** As {!consumers}. *)
end

val topological_stencils : t -> Stencil.t list
(** Stencils in dependency order. Raises if the program has a cycle. *)

val topological_of_reads : t -> (Stencil.t * string list) list -> Stencil.t list
(** {!topological_stencils} over the given stencils, each paired with its
    input fields (the program supplies only its inputs): for callers that
    keep the fields read alongside a body they rewrite. *)

val with_vector_width : t -> int -> t
val pp : Format.formatter -> t -> unit
(** Human-readable multi-line summary. *)

val body_fingerprint : Expr.body -> Sf_support.Fingerprint.t
(** Structural content digest of a stencil body, computed over the
    hash-consed DAG so shared subexpressions are digested once.
    Bodies with the same let names whose lets and results are
    {!Expr.equal} digest equal; any semantic change (constant bit-flip,
    operator, access offset, let name) digests different. *)

val fingerprint : t -> Sf_support.Fingerprint.t
(** Content digest of the whole program — the cache key component used
    by the content-addressed pass cache (see docs/PIPELINE.md). *)
