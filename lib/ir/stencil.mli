(** A single stencil operation: one node of the stencil program DAG.

    Each stencil reads one or more inputs (off-chip fields or results of
    other stencils) at constant offsets and produces exactly one output
    field, named after the stencil itself (paper, Sec. II). Boundary
    conditions are per input; the "shrink" condition is a flag on the
    output. *)

type t = {
  name : string;  (** Also the name of the field this stencil produces. *)
  body : Expr.body;
  boundary : (string * Boundary.t) list;
      (** Per-input boundary conditions; inputs not listed use
          {!Boundary.default}. *)
  shrink : bool;
      (** When set, output cells whose computation read out-of-bounds
          values are dropped from the written result. *)
}

val make : ?boundary:(string * Boundary.t) list -> ?shrink:bool -> name:string -> Expr.body -> t

val boundary_for : t -> string -> Boundary.t
(** The boundary condition for one input field. *)

val accesses : t -> (string * int list) list
(** All field accesses of the (inlined) body, duplicates removed, in
    evaluation order ({!Dag.accesses} of the body's DAG). *)

val input_fields : t -> string list
(** Names of fields read, duplicates removed, in order of first access. *)

val fields_read : (string * int list) list -> string list
(** The fields of an access list such as {!accesses}, duplicates removed,
    in order of first access: [input_fields s = fields_read (accesses s)]. *)

val offsets_read : (string * int list) list -> string -> int list list
(** The offsets at which an access list reads a field:
    [accesses_of_field s f = offsets_read (accesses s) f]. *)

val accesses_of_field : t -> string -> int list list
(** The distinct offsets at which this stencil reads a given field. *)

val op_profile : t -> Expr.op_profile
(** [Expr.body_op_profile] of the body: each let binding counted once,
    each subexpression once per occurrence in the binding bodies. *)

val work_profile : t -> Expr.op_profile
(** Sharing-aware profile over the hash-consed DAG ({!Dag.work_profile}):
    every distinct value counted exactly once, whether shared through a
    let or structurally. What the pipeline instantiates. *)

val tree_profile : t -> Expr.op_profile
(** Profile of the fully inlined body ({!Dag.tree_profile}, saturating):
    what a per-occurrence evaluation would execute. *)

val equal_boundaries : t -> t -> bool
(** Same boundary-condition table and shrink flag (fusion precondition,
    Sec. V-B). *)

val boundaries_agree : t -> reads_a:string list -> t -> reads_b:string list -> bool
(** {!equal_boundaries} given each stencil's input fields. *)

val pp : Format.formatter -> t -> unit
