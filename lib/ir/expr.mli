(** Expression AST for stencil computations (paper, Sec. II).

    A stencil's code segment is restricted to an {e analyzable} form: field
    accesses at constant offsets, arithmetic, comparisons, ternary
    conditionals (including data-dependent branches), and standard math
    functions — no external data structures or functions. This closed AST
    is what makes the critical-path latency analysis (Sec. IV-B), operation
    counting (Sec. IX-A), and stencil fusion (Sec. V-B) possible. *)

type unop = Neg | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

(** Standard math functions permitted by the DSL. *)
type func = Sqrt | Abs | Exp | Log | Pow | Min | Max | Sin | Cos | Floor | Ceil

type t =
  | Const of float
  | Access of { field : string; offsets : int list }
      (** [field\[o1, o2, ...\]]: a read at a constant offset from the
          center of the iteration space. A 0-dimensional (scalar) input is
          an access with no offsets. *)
  | Var of string  (** Reference to a let-bound local temporary. *)
  | Unary of unop * t
  | Binary of binop * t * t
  | Select of { cond : t; if_true : t; if_false : t }  (** [cond ? a : b] *)
  | Call of func * t list

type body = { lets : (string * t) list; result : t }
(** A stencil body: a sequence of local bindings followed by the expression
    producing the stencil's single output value. *)

val func_name : func -> string
val func_of_name : string -> func option
val func_arity : func -> int

val equal : t -> t -> bool

val accesses : t -> (string * int list) list
(** All field accesses in evaluation order, duplicates removed. *)

val free_vars : t -> string list
(** [Var] names not bound in the expression itself (all of them — the AST
    has no binders), duplicates removed, in order of first use. *)

val map_accesses : (field:string -> offsets:int list -> t) -> t -> t
(** Replace every access by the result of the callback (used by map
    fission and time-loop unrolling). *)

(** Operation profile, matching the categories the paper reports for the
    horizontal diffusion program (Sec. IX-A): additions (including
    subtractions), multiplications, divisions, square roots, min/max, other
    calls, comparisons, and data-dependent branches (ternaries whose
    condition reads at least one field). *)
type op_profile = {
  adds : int;
  muls : int;
  divs : int;
  sqrts : int;
  mins : int;
  maxs : int;
  other_calls : int;
  compares : int;
  data_branches : int;
  const_branches : int;
}

val empty_profile : op_profile
val add_profile : op_profile -> op_profile -> op_profile

val sat_add : int -> int -> int
(** Addition of non-negative counts that saturates at [max_int]. *)

val sat_add_profile : op_profile -> op_profile -> op_profile
(** {!add_profile} with {!sat_add} on every count. *)

val op_profile : t -> op_profile
val body_op_profile : body -> op_profile
(** Profile of a whole body. Let bindings count once each regardless of
    how often they are referenced: the pipeline computes a bound value a
    single time and fans it out. Fusion substitutes on the hash-consed
    DAG ({!Dag}) and re-extracts the sharing as lets, so fused bodies
    keep their sharing here too (modulo shared nodes below the extraction
    threshold) — see {!Dag.work_profile} for the exact sharing-aware
    count and {!Dag.tree_profile} for the fully inlined per-occurrence
    one. *)

val flop_count : op_profile -> int
(** Floating-point operations as the paper counts them: adds + muls + divs
    + sqrts (square root counts as one op; Sec. IX-A). *)

val to_string : t -> string
(** Precedence-correct rendering that reparses to an equal AST. *)

val body_to_string : body -> string
val pp : Format.formatter -> t -> unit
