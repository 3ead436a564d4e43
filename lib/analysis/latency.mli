(** Pipeline latency of a stencil's computation (paper, Sec. IV-B).

    The AST of a stencil computation forms a DAG whose critical path adds
    a delay between inputs entering and results exiting the pipeline. The
    per-operation latencies are type- and architecture-dependent, so they
    are provided as configuration with conservative defaults; the paper
    notes these delays are typically small (<100 cycles) and may safely be
    overestimated. *)

type config = {
  add : int;
  mul : int;
  div : int;
  sqrt : int;
  compare : int;
  logic : int;
  select : int;
  call : int;  (** Latency of math calls other than sqrt/min/max. *)
  min_max : int;
}

val default : config
(** Conservative defaults for pipelined single-precision floating point on
    a Stratix-10-class device. *)

val cheap : config
(** All-ones configuration, useful to make unit tests readable. *)

val critical_path : config -> Sf_ir.Expr.body -> int
(** Depth of the computation DAG in cycles. Let-bound temporaries are
    shared, not duplicated: each binding's depth is computed once. *)
