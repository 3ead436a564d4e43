(** Hash-consed expression DAG — the canonical sharing-aware IR.

    Structurally identical subexpressions of an {!Expr.t} tree are
    represented by a single node with a unique id, making equality and
    hashing O(1) and letting every consumer distinguish two metrics:

    - {e tree} metrics describe the fully inlined expression (what the
      frontend wrote, what a per-occurrence evaluation would execute);
    - {e work} metrics count each distinct node exactly once (what the
      spatial pipeline computes: shared values are produced once and
      fanned out).

    Invariants:
    - node ids increase from children to parents, so sorting reachable
      nodes by id ({!topo}) is a topological order and the root has the
      maximal id;
    - constants are hash-consed on their IEEE-754 bit pattern, so NaN
      payloads and [-0.0] vs [0.0] are distinct nodes and no
      value-changing merge can happen;
    - the memo table is domain-local (OCaml 5 [Domain.DLS]): DAGs are
      cheap ephemeral views built, analysed and discarded within one
      domain. Nodes must not be shared across domains; the persistent
      program representation remains {!Expr.body}. *)

type t

type view =
  | Const of float
  | Access of { field : string; offsets : int list }
  | Var of string
  | Unary of Expr.unop * t
  | Binary of Expr.binop * t * t
  | Select of { cond : t; if_true : t; if_false : t }
  | Call of Expr.func * t list

val view : t -> view
val id : t -> int

val equal : t -> t -> bool
(** O(1): id comparison. Sound within one domain. *)

val compare : t -> t -> int
val hash : t -> int

(** {2 Smart constructors (hash-consing)} *)

val const : float -> t
val access : field:string -> offsets:int list -> t
val var : string -> t
val unary : Expr.unop -> t -> t
val binary : Expr.binop -> t -> t -> t
val select : cond:t -> if_true:t -> if_false:t -> t
val call : Expr.func -> t list -> t

(** {2 Conversions} *)

val of_expr : ?env:(string -> t option) -> Expr.t -> t
(** Build the DAG of a tree; [env] resolves [Var] leaves (unresolved
    variables stay [Var] nodes). *)

val of_body : Expr.body -> t
(** {!of_expr} with the body's let bindings resolved in order: both the
    programmer's explicit sharing (lets) and latent structural sharing
    collapse onto the same nodes. *)

val of_body_named : Expr.body -> (string * t) list * t
(** Like {!of_body} but also returns each let binding's node, in order —
    used by consumers that want to preserve the original names. *)

val to_expr : t -> Expr.t
(** The fully inlined tree (shared nodes duplicated per occurrence). *)

val extract : ?min_size:int -> ?prefix:string -> ?keep:(string * t) list -> t -> Expr.body
(** CSE as let-extraction: every non-leaf node with at least two parent
    edges (duplicate edges count) and at least [min_size] tree nodes
    (default 3) becomes a let binding, emitted in DFS post-order from the
    root (so independent of interning history) and named [<prefix>N]
    (default ["__cse"]). Nodes listed in [keep] are
    always extracted under their given name. Inlining the resulting
    body's lets reproduces {!to_expr} exactly. *)

val to_body : ?min_size:int -> ?prefix:string -> t -> Expr.body
(** {!extract} with no pinned names. *)

(** {2 Memoized queries} *)

val tree_size : t -> int
(** AST nodes of the fully inlined tree ({!to_expr});
    saturates at [max_int]. Stored on the node: O(1). *)

val work_size : t -> int
(** Distinct reachable nodes — the sharing-aware size. *)

val tree_profile : t -> Expr.op_profile
(** Op profile of the fully inlined tree (saturating). *)

val work_profile : t -> Expr.op_profile
(** Op profile counting each distinct node once. *)

val shared_nodes : t -> int
(** Non-leaf nodes with two or more parent edges — the values a
    scheduler materializes as shared temporaries. *)

val accesses : t -> (string * int list) list
(** Distinct field accesses in first-encounter (evaluation) order —
    agrees with [Expr.accesses] of {!to_expr}. *)

val free_vars : t -> string list
(** Unresolved [Var] leaves in first-encounter order. *)

val topo : t -> t list
(** All reachable nodes sorted by id: children strictly before parents,
    root last. *)

val post_order : t list -> t list
(** Every node reachable from [roots], once, in depth-first post-order
    (roots in order): a topological order independent of the ids. *)

val reads_data : t -> bool
(** Whether the DAG reads any field or unresolved variable. *)

val map_accesses : (field:string -> offsets:int list -> t) -> t -> t
(** Rebuild the DAG with every access replaced by the callback's result.
    Memoized per distinct node: a substitution into a shared access is
    computed once, no matter how often the tree form repeats it. *)
