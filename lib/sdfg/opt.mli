(** Expression-level optimizations over the hash-consed DAG.

    Fusion (Sec. V-B) inlines producer expressions once per consuming
    access, so a fused stencil can contain many copies of the same
    subexpression; the paper relies on the downstream optimizing compiler
    to clean this up ("combined code sections increase the opportunity
    for common subexpression elimination"). This module provides that
    cleanup natively — as linear passes over {!Sf_ir.Dag} nodes, so each
    distinct value is visited once no matter how often the inlined tree
    repeats it:

    - {!fold_dag} / {!fold_constants}: constant subgraphs are evaluated,
      and the safe algebraic identities [x + 0], [0 + x], [x - 0],
      [x * 1], [1 * x], [x / 1] and constant-condition selects are
      simplified (identities that could change IEEE semantics on NaN/Inf
      inputs, like [x * 0], are left alone);
    - CSE is let-extraction ({!Sf_ir.Dag.extract}): every shared node is
      bound once and fanned out. *)

val eval_const_unop : Sf_ir.Expr.unop -> float -> float

val eval_const_binop : Sf_ir.Expr.binop -> float -> float -> float
(** IEEE semantics, pinned by regression tests: [Eq] on NaN is false and
    [Ne] on NaN is true (OCaml [=]/[<>] on floats), exactly as
    [Reference.Interp] and the compiled simulator evaluate them — a
    folded comparison must equal the runtime one bit-for-bit. *)

val eval_const_call : Sf_ir.Expr.func -> float list -> float option
(** [None] when the argument count does not match the function. *)

val fold_dag : ?preserve_access_effects:bool -> Sf_ir.Dag.t -> Sf_ir.Dag.t
(** Fold one DAG (memoized per node id). With [preserve_access_effects]
    (used for "shrink" stencils, whose validity masks depend on every
    predicated access), constant-condition selects are only folded when
    the eliminated branch reads no fields. *)

val fold_constants : ?preserve_access_effects:bool -> Sf_ir.Expr.t -> Sf_ir.Expr.t
(** Tree-level convenience wrapper around {!fold_dag}. *)

val cse : ?min_size:int -> Sf_ir.Expr.body -> Sf_ir.Expr.body
(** Compatibility shim for {!Sf_ir.Dag.to_body}: hoist every shared
    non-leaf node of at least [min_size] AST nodes (default 3) into a
    let binding ([__cseN]), inner shares bound before the outer ones
    that use them. Unlike the historical string-keyed version, a subtree
    repeated only through a single shared parent is bound once. *)

val optimize_stencil : ?min_size:int -> Sf_ir.Stencil.t -> Sf_ir.Stencil.t

type report = {
  ops_before : int;  (** work (sharing-aware) flops per cell, summed over stencils *)
  ops_after : int;  (** same, after folding + CSE *)
  tree_ops_after : int;
      (** flops of the fully inlined post-optimization trees (saturating) *)
  shared_nodes : int;  (** distinct shared non-leaf values across all bodies *)
}

val flops_saved : report -> int
(** [tree_ops_after - ops_after]: per-cell flops the extracted sharing
    avoids relative to per-occurrence evaluation. *)

val optimize_with_report : ?min_size:int -> Sf_ir.Program.t -> Sf_ir.Program.t * report

val optimize : ?min_size:int -> Sf_ir.Program.t -> Sf_ir.Program.t
(** Apply both passes to every stencil, then clean up what folding may
    have disconnected: boundary conditions of fields no longer read,
    stencils that became dead, and inputs that fell out of use. Unchecked:
    the consumer's check catches a fault. Typically run after {!Fusion.fuse_all}. *)
